//! `e2e repeat N`: run the full set N times and print, per end-to-end
//! metric and workload, the median, the quartiles, their distance as a
//! share of the median, and the metric's bound.
//! This is how the bounds were set and how repeatability is checked.

use std::collections::BTreeMap;

use crate::report::{DEMOTED, END_TO_END};
use crate::run::{self, Options};
use crate::spec::WORKLOADS;

pub struct Repeat {
    pub n: usize,
    /// Keep one seed for every repetition instead of `seed + i`.
    pub same_seed: bool,
    /// Every run is this, untraced, with the repetition's seed.
    pub template: Options,
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method), which is what the driver computes.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let n = data.len();
    if n < 2 {
        let only = data.first().copied().unwrap_or(0.0);
        return [only; 3];
    }
    [1usize, 2, 3].map(|i| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    })
}

/// The end-to-end metrics and the demoted ones, which every untraced run
/// measures too.
fn tracked() -> impl Iterator<Item = &'static str> {
    END_TO_END.iter().map(|m| m.0).chain(DEMOTED.iter().map(|m| m.0))
}

pub fn repeat(cfg: &Repeat) -> Result<bool, String> {
    // values[workload][metric] = one value per repetition
    let mut values: BTreeMap<&str, BTreeMap<&str, Vec<f64>>> = BTreeMap::new();
    let mut ok = true;
    for rep in 0..cfg.n {
        // A different workload order every repetition.
        for k in 0..WORKLOADS.len() {
            let spec = &WORKLOADS[(k + rep) % WORKLOADS.len()];
            let seed = cfg.template.seed + if cfg.same_seed { 0 } else { rep as u64 };
            let opts = Options { seed, trace: false, trace_out: None, ..cfg.template.clone() };
            let outcome = run::run(spec, &opts)?;
            eprintln!(
                "repeat {}/{} {} seed {}: attempted {} failed {}",
                rep + 1,
                cfg.n,
                spec.name,
                opts.seed,
                outcome.attempted,
                outcome.failed
            );
            ok &= outcome.correct();
            for name in tracked() {
                if let Some(m) = outcome.get(name) {
                    values.entry(spec.name).or_default().entry(name).or_default().push(m.value);
                }
            }
        }
    }
    let bounds: BTreeMap<&str, f64> = END_TO_END.iter().map(|m| (m.0, m.3)).collect();
    println!(
        "{:<18} {:<24} {:>12} {:>12} {:>12} {:>8} {:>7}",
        "workload", "metric", "q1", "median", "q3", "spread", "bound"
    );
    for spec in &WORKLOADS {
        for name in tracked() {
            let Some(v) = values.get(spec.name).and_then(|w| w.get(name)) else { continue };
            let [q1, median, q3] = quartiles(v);
            let spread = if median != 0.0 { (q3 - q1) / median.abs() } else { 0.0 };
            let bound = bounds.get(name).map_or("demoted".to_string(), |b| format!("{b:.2}"));
            println!(
                "{:<18} {:<24} {:>12.3} {:>12.3} {:>12.3} {:>7.1}% {:>7}",
                spec.name,
                name,
                q1,
                median,
                q3,
                spread * 100.0,
                bound
            );
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), [1.0, 3.0, 4.5]);
    }
}
