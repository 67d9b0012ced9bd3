//! Expected answers: a plain `HashMap` recomputation from the generated
//! trips, sharing no code with the system under test.

use crate::api::{QueryOutput, Row};
use crate::gen::Trip;
use std::collections::HashMap;
use std::hash::Hash;

/// `(count, fare sum)` of a group. Fares are dyadic, so the sum is exact
/// whatever order the system folded it in.
pub type Agg = (u64, f64);

pub fn group_by<'a, K: Hash + Eq>(
    trips: impl IntoIterator<Item = &'a Trip>,
    key: impl Fn(&Trip) -> K,
) -> HashMap<K, Agg> {
    let mut groups: HashMap<K, Agg> = HashMap::new();
    for t in trips {
        let g = groups.entry(key(t)).or_insert((0, 0.0));
        g.0 += 1;
        g.1 += t.fare;
    }
    groups
}

pub fn total<'a>(trips: impl IntoIterator<Item = &'a Trip>) -> Agg {
    group_by(trips, |_| ()).remove(&()).unwrap_or((0, 0.0))
}

/// Start of the tumbling window a trip falls in.
pub fn window_of(t: &Trip, size_ms: i64) -> i64 {
    t.ts.div_euclid(size_ms) * size_ms
}

/// Does `rows` (columns `key`, `n`, and `revenue` when `with_revenue`)
/// equal `expected` group for group?
pub fn groups_equal(
    rows: &[Row],
    key: &str,
    with_revenue: bool,
    expected: &HashMap<String, Agg>,
) -> bool {
    rows.len() == expected.len()
        && rows
            .iter()
            .all(|r| row_matches(r, key, with_revenue, expected))
}

/// Is `rows` a correct `ORDER BY n DESC LIMIT limit` over `expected`? Groups
/// that tie at the cut may come back in either order, so the check is: the
/// counts, in order, are the oracle's `limit` largest, and every returned
/// group carries the oracle's values.
pub fn is_top_by_count(
    rows: &[Row],
    key: &str,
    with_revenue: bool,
    expected: &HashMap<String, Agg>,
    limit: usize,
) -> bool {
    let mut counts: Vec<u64> = expected.values().map(|a| a.0).collect();
    counts.sort_unstable_by(|a, b| b.cmp(a));
    counts.truncate(limit);
    let got: Vec<u64> = rows
        .iter()
        .filter_map(|r| r.get_int("n").map(|n| n as u64))
        .collect();
    got == counts
        && rows
            .iter()
            .all(|r| row_matches(r, key, with_revenue, expected))
}

fn row_matches(row: &Row, key: &str, with_revenue: bool, expected: &HashMap<String, Agg>) -> bool {
    let Some(&(n, revenue)) = row.get_str(key).and_then(|k| expected.get(k)) else {
        return false;
    };
    row.get_int("n") == Some(n as i64)
        && (!with_revenue || row.get_double("revenue") == Some(revenue))
}

/// The `n` of a one-row answer: how many records the answer reflects.
pub fn count_of(answer: QueryOutput) -> u64 {
    answer
        .rows
        .first()
        .and_then(|r| r.get_int("n"))
        .map_or(0, |n| n.max(0) as u64)
}

/// Is `rows` (columns `n`, `revenue`) the one-row answer `expected`? An
/// aggregate over no rows may report a NULL sum.
pub fn scalar_equal(rows: &[Row], expected: Agg) -> bool {
    rows.len() == 1
        && rows[0].get_int("n") == Some(expected.0 as i64)
        && rows[0].get_double("revenue").unwrap_or(0.0) == expected.1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trip(city: &str, fare: f64, ts: i64) -> Trip {
        Trip {
            city: city.into(),
            driver: "d".into(),
            fare,
            ts,
        }
    }

    fn row(city: &str, n: i64, revenue: f64) -> Row {
        Row::new()
            .with("city", city)
            .with("n", n)
            .with("revenue", revenue)
    }

    #[test]
    fn groups_and_windows() {
        let trips = [
            trip("a", 1.25, 0),
            trip("a", 2.0, 999),
            trip("b", 4.0, 1000),
        ];
        let by_city = group_by(&trips, |t| t.city.clone());
        assert_eq!(by_city["a"], (2, 3.25));
        assert_eq!(total(&trips), (3, 7.25));
        assert_eq!(total(&[]), (0, 0.0));
        assert_eq!(window_of(&trips[1], 1000), 0);
        assert_eq!(window_of(&trips[2], 1000), 1000);
        assert!(groups_equal(
            &[row("b", 1, 4.0), row("a", 2, 3.25)],
            "city",
            true,
            &by_city
        ));
        assert!(!groups_equal(&[row("a", 2, 3.25)], "city", true, &by_city));
        assert!(!groups_equal(
            &[row("b", 1, 4.5), row("a", 2, 3.25)],
            "city",
            true,
            &by_city
        ));
    }

    #[test]
    fn top_n_accepts_either_order_of_a_tie_at_the_cut() {
        let expected: HashMap<String, Agg> = [("a", 5), ("b", 3), ("c", 3), ("d", 1)]
            .into_iter()
            .map(|(k, n)| (k.to_string(), (n, n as f64)))
            .collect();
        assert!(is_top_by_count(
            &[row("a", 5, 5.0), row("b", 3, 3.0)],
            "city",
            true,
            &expected,
            2
        ));
        assert!(is_top_by_count(
            &[row("a", 5, 5.0), row("c", 3, 3.0)],
            "city",
            true,
            &expected,
            2
        ));
        // wrong order, wrong group value, too few rows
        assert!(!is_top_by_count(
            &[row("b", 3, 3.0), row("a", 5, 5.0)],
            "city",
            true,
            &expected,
            2
        ));
        assert!(!is_top_by_count(
            &[row("a", 5, 5.0), row("d", 3, 3.0)],
            "city",
            true,
            &expected,
            2
        ));
        assert!(!is_top_by_count(
            &[row("a", 5, 5.0)],
            "city",
            true,
            &expected,
            2
        ));
        assert!(scalar_equal(
            &[Row::new().with("n", 3i64).with("revenue", 7.25)],
            (3, 7.25)
        ));
        assert!(!scalar_equal(
            &[Row::new().with("n", 3i64).with("revenue", 7.0)],
            (3, 7.25)
        ));
    }
}
