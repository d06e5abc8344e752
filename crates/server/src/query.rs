//! Continual range queries (the paper's query workload, Section 4.2).

use lira_core::geometry::Rect;

/// A registered continual range query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RangeQuery {
    /// Stable query identifier.
    pub id: u32,
    /// The monitored range.
    pub range: Rect,
}

/// The result of evaluating one query: the matching node ids, sorted.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QueryResult {
    /// Query this result belongs to.
    pub query: u32,
    /// Matching node ids, ascending.
    pub nodes: Vec<u32>,
}

impl QueryResult {
    /// Set-difference size `|self \ other|` (both sides are sorted).
    pub fn missing_from(&self, other: &QueryResult) -> usize {
        sorted_difference_count(&self.nodes, &other.nodes)
    }
}

/// Number of elements of sorted `a` not present in sorted `b`.
pub fn sorted_difference_count(a: &[u32], b: &[u32]) -> usize {
    let mut count = 0;
    let mut j = 0;
    for &x in a {
        while j < b.len() && b[j] < x {
            j += 1;
        }
        if j >= b.len() || b[j] != x {
            count += 1;
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn difference_count() {
        assert_eq!(sorted_difference_count(&[1, 2, 3], &[2, 3, 4]), 1);
        assert_eq!(sorted_difference_count(&[1, 2, 3], &[]), 3);
        assert_eq!(sorted_difference_count(&[], &[1]), 0);
        assert_eq!(sorted_difference_count(&[5, 9], &[5, 9]), 0);
        assert_eq!(sorted_difference_count(&[1, 3, 5, 7], &[2, 3, 6, 7]), 2);
    }

    #[test]
    fn missing_from() {
        let a = QueryResult {
            query: 0,
            nodes: vec![1, 2, 3],
        };
        let b = QueryResult {
            query: 0,
            nodes: vec![2, 4],
        };
        assert_eq!(a.missing_from(&b), 2); // 1 and 3
        assert_eq!(b.missing_from(&a), 1); // 4
    }

    #[test]
    fn query_holds_range() {
        let q = RangeQuery {
            id: 7,
            range: Rect::from_coords(0.0, 0.0, 10.0, 10.0),
        };
        assert_eq!(q.id, 7);
        assert_eq!(q.range.area(), 100.0);
    }
}
