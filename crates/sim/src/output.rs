//! Rendering helpers: key/value tables and quick ASCII charts for
//! terminal inspection.

use std::fmt::Write as _;

/// A quick ASCII line chart of a series, `width`×`height` characters.
///
/// Good enough to eyeball the Figure 2 starvation or the Figure 5 spikes
/// in a terminal without leaving the bench harness.
#[must_use]
pub fn ascii_chart(title: &str, series: &[(f64, f64)], width: usize, height: usize) -> String {
    assert!(width >= 8 && height >= 2, "chart too small");
    if series.is_empty() {
        return format!("{title}\n(empty series)\n");
    }
    let (mut xmin, mut xmax) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut ymin, mut ymax) = (f64::INFINITY, f64::NEG_INFINITY);
    for &(x, y) in series {
        if x.is_finite() {
            xmin = xmin.min(x);
            xmax = xmax.max(x);
        }
        if y.is_finite() {
            ymin = ymin.min(y);
            ymax = ymax.max(y);
        }
    }
    if !xmin.is_finite() || !ymin.is_finite() {
        return format!("{title}\n(no finite points)\n");
    }
    if (xmax - xmin).abs() < f64::EPSILON {
        xmax = xmin + 1.0;
    }
    if (ymax - ymin).abs() < f64::EPSILON {
        ymax = ymin + 1.0;
    }
    let mut grid = vec![vec![b' '; width]; height];
    for &(x, y) in series {
        if !x.is_finite() || !y.is_finite() {
            continue;
        }
        let col = (((x - xmin) / (xmax - xmin)) * (width - 1) as f64).round() as usize;
        let row = (((y - ymin) / (ymax - ymin)) * (height - 1) as f64).round() as usize;
        let r = height - 1 - row.min(height - 1);
        grid[r][col.min(width - 1)] = b'*';
    }
    let mut s = String::new();
    let _ = writeln!(s, "{title}");
    let _ = writeln!(s, "y: [{ymin:.3}, {ymax:.3}]  x: [{xmin:.3}, {xmax:.3}]");
    for row in grid {
        let _ = writeln!(s, "|{}|", String::from_utf8_lossy(&row));
    }
    s
}

/// Formats a simple aligned two-column table of labelled values.
#[must_use]
pub fn kv_table(rows: &[(&str, String)]) -> String {
    let key_width = rows.iter().map(|(k, _)| k.len()).max().unwrap_or(0);
    let mut s = String::new();
    for (k, v) in rows {
        let _ = writeln!(s, "  {k:<key_width$}  {v}");
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ascii_chart_renders() {
        let series: Vec<(f64, f64)> = (0..100)
            .map(|i| (i as f64, (i as f64 * 0.2).sin()))
            .collect();
        let chart = ascii_chart("sine", &series, 60, 10);
        assert!(chart.contains("sine"));
        assert!(chart.contains('*'));
        assert_eq!(chart.lines().count(), 12);
    }

    #[test]
    fn ascii_chart_handles_empty_and_flat() {
        assert!(ascii_chart("e", &[], 20, 5).contains("empty"));
        let flat = ascii_chart("f", &[(0.0, 3.0), (1.0, 3.0)], 20, 5);
        assert!(flat.contains('*'));
    }

    #[test]
    fn kv_table_aligns() {
        let t = kv_table(&[("short", "1".into()), ("much longer key", "2".into())]);
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 2);
        let c1 = lines[0].find('1').unwrap();
        let c2 = lines[1].find('2').unwrap();
        assert_eq!(c1, c2, "values must align");
    }
}
