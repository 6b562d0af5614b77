//! Terminal line charts for sweep results.
//!
//! Renders the paper-style "normalized energy vs utilization" curves as
//! ASCII so the Figures 6–8 panels `figures run` prints can be eyeballed
//! against the published figures without a plotting stack. One character column per grid point
//! group, one letter per policy, `*` where the bound runs.

use std::fmt::Write as _;

use crate::sweep::Sweep;

/// Plot height in character rows.
const ROWS: usize = 20;

/// Letters assigned to policy columns, in order.
const LETTERS: &[char] = &['E', 'R', 'S', 'c', 'r', 'l', 'x', 'y', 'z'];

/// Renders normalized energy curves for a sweep: y in [0, 1.05], x over
/// the utilization grid. Overlapping curves show the later policy's
/// letter; the bound is drawn with `*`.
#[must_use]
pub fn render_normalized_chart(sweep: &Sweep) -> String {
    let cols = sweep.rows.len().max(1);
    let width = cols * 3;
    let y_max = 1.05;
    let mut grid = vec![vec![' '; width]; ROWS];

    let mut plot = |col: usize, value: f64, ch: char| {
        let clamped = value.clamp(0.0, y_max);
        let row = ((1.0 - clamped / y_max) * (ROWS - 1) as f64).round() as usize;
        let x = col * 3 + 1;
        grid[row.min(ROWS - 1)][x] = ch;
    };

    for (i, _row) in sweep.rows.iter().enumerate() {
        plot(i, sweep.normalized_bound(i), '*');
        for p in 0..sweep.policy_names.len() {
            let letter = LETTERS[p % LETTERS.len()];
            plot(i, sweep.normalized(i, p), letter);
        }
    }

    let mut out = String::new();
    for (r, line) in grid.iter().enumerate() {
        let y = y_max * (1.0 - r as f64 / (ROWS - 1) as f64);
        let label = if r % 4 == 0 {
            format!("{y:4.2} |")
        } else {
            "     |".to_owned()
        };
        let _ = writeln!(out, "{label}{}", line.iter().collect::<String>());
    }
    let _ = writeln!(out, "     +{}", "-".repeat(width));
    // X-axis labels at the first and last grid points.
    let first = sweep.rows.first().map_or(0.0, |r| r.utilization);
    let last = sweep.rows.last().map_or(0.0, |r| r.utilization);
    let _ = writeln!(
        out,
        "      U={first:.2}{:>width$}",
        format!("U={last:.2}"),
        width = width.saturating_sub(7)
    );
    // Legend.
    let mut legend = String::from("      ");
    for (p, name) in sweep.policy_names.iter().enumerate() {
        let _ = write!(legend, "{}={name} ", LETTERS[p % LETTERS.len()]);
    }
    legend.push_str("*=bound");
    let _ = writeln!(out, "{legend}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{run_sweep, SweepConfig};
    use rtdvs_core::time::Time;

    fn tiny_sweep() -> Sweep {
        let mut cfg = SweepConfig::paper_default(4);
        cfg.utilizations = vec![0.25, 0.5, 0.75, 1.0];
        cfg.sets_per_point = 2;
        cfg.duration = Time::from_ms(200.0);
        run_sweep(&cfg)
    }

    #[test]
    fn chart_has_expected_shape() {
        let sweep = tiny_sweep();
        let chart = render_normalized_chart(&sweep);
        let lines: Vec<&str> = chart.lines().collect();
        // 20 rows + axis + labels + legend.
        assert_eq!(lines.len(), ROWS + 3);
        assert!(lines[ROWS].starts_with("     +"));
        assert!(chart.contains("E=EDF"));
        assert!(chart.contains("l=laEDF"));
        assert!(chart.contains("*=bound"));
    }

    #[test]
    fn plain_edf_row_is_at_the_top() {
        let sweep = tiny_sweep();
        let chart = render_normalized_chart(&sweep);
        // EDF normalizes to 1.0 everywhere: an 'E' must appear in the top
        // band (first three rows) of the plot.
        let top: String = chart.lines().take(3).collect();
        assert!(top.contains('E'), "no EDF curve near 1.0:\n{chart}");
    }

    #[test]
    fn bound_is_never_above_edf() {
        let sweep = tiny_sweep();
        // Structural check backing the visual: normalized bound ≤ 1.
        for i in 0..sweep.rows.len() {
            assert!(sweep.normalized_bound(i) <= 1.0 + 1e-9);
        }
        // And the chart still renders with a single row.
        let mut one = sweep.clone();
        one.rows.truncate(1);
        let chart = render_normalized_chart(&one);
        assert!(chart.contains('*'));
    }
}
