//! Statistics and output formatting.

use mwsj_core::obs::json::{escape, fmt_f64};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// `{"name": {"value": v, "unit": u}, ...}` in the given order.
pub fn metrics_json(metrics: &[(&str, &str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                escape(name),
                fmt_f64(*value),
                escape(unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// A fixed-width table of named values with units.
pub fn table(title: &str, rows: &[(&str, &str, f64)]) -> String {
    let width = rows.iter().map(|r| r.0.len()).max().unwrap_or(0);
    let mut out = format!("{title}\n");
    for (name, unit, value) in rows {
        let _ = writeln!(out, "  {name:<width$}  {value:>16.6} {unit}");
    }
    out
}

/// Self time per `name/detail` over the given totals, largest first, as a
/// share of `wall_ns`.
pub fn self_time_table(title: &str, totals: &BTreeMap<String, (u64, u64)>, wall_ns: u64) -> String {
    let mut rows: Vec<_> = totals.iter().collect();
    rows.sort_by(|a, b| b.1 .1.cmp(&a.1 .1).then(a.0.cmp(b.0)));
    let width = rows.iter().map(|r| r.0.len()).max().unwrap_or(0);
    let mut out = format!(
        "{title}\n  {:<width$}  {:>6}  {:>12}  {:>6}\n",
        "span", "count", "self_s", "share"
    );
    for (key, (count, self_ns)) in rows {
        let _ = writeln!(
            out,
            "  {key:<width$}  {count:>6}  {:>12.6}  {:>5.1}%",
            *self_ns as f64 / 1e9,
            100.0 * *self_ns as f64 / wall_ns.max(1) as f64
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn metrics_json_keeps_every_digit_and_escapes() {
        let json = metrics_json(&[("a\"b", "s", 0.123456789012), ("c", "1/s", 2.0)]);
        assert_eq!(
            json,
            "{\"a\\\"b\": {\"value\": 0.123456789012, \"unit\": \"s\"}, \"c\": {\"value\": 2, \"unit\": \"1/s\"}}"
        );
    }
}
