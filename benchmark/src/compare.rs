//! `--compare a.json b.json`: judge result file `b` against baseline `a`.
//! Exact (`sim`) metrics must be equal; bounded host metrics may worsen by
//! at most their bound; the other host metrics are shown, not judged.

use std::process::ExitCode;

use crate::json::{self, Json};
use crate::metrics;
use crate::stats::{within_bound, worse_by};

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// A metric's comparable value: the median of a sampled metric, else the
/// single value.
fn value(m: &Json) -> Option<f64> {
    m.get("median").or_else(|| m.get("value"))?.num()
}

/// Lines to print and the number of violations among them.
pub fn compare(a: &Json, b: &Json) -> Result<(Vec<String>, usize), String> {
    for key in ["seed", "smoke"] {
        if a.get(key) != b.get(key) {
            return Err(format!(
                "the files differ in `{key}`: exact metrics only compare at one seed and size"
            ));
        }
    }
    let mut lines = Vec::new();
    let mut bad = 0;
    let mut judge = |scope: &str, name: &str, ma: &Json, mb: Option<&Json>| {
        let (Some(va), Some(vb)) = (value(ma), mb.and_then(value)) else {
            lines.push(format!("MISSING  {scope} {name}"));
            bad += 1;
            return;
        };
        let Some(m) = metrics::find(name) else {
            return;
        };
        let bound = if m.exact { Some(0.0) } else { m.bound };
        let verdict = match bound {
            Some(bd) if !within_bound(va, vb, m.better, bd) => {
                bad += 1;
                "WORSE"
            }
            Some(_) => "ok",
            None => "info",
        };
        let delta = if va == vb {
            "equal".to_string()
        } else {
            format!("{:+.2}% worse", 100.0 * worse_by(va, vb, m.better))
        };
        let limit = match bound {
            Some(0.0) => "exact".to_string(),
            Some(bd) => format!("bound {:.0}%", bd * 100.0),
            None => "no bound".to_string(),
        };
        lines.push(format!(
            "{verdict:<8} {scope} {name}: {va} -> {vb} {} ({delta}; {limit})",
            m.unit
        ));
    };
    for (w, wa) in a
        .get("workloads")
        .ok_or("no `workloads` in the baseline")?
        .entries()
    {
        let wb = b.get("workloads").and_then(|x| x.get(w));
        for section in ["end_to_end", "per_layer"] {
            for (name, ma) in wa.get(section).map_or(&[][..], Json::entries) {
                let mb = wb.and_then(|x| x.get(section)?.get(name));
                judge(w, name, ma, mb);
            }
        }
    }
    for (name, ma) in a.get("probes").map_or(&[][..], Json::entries) {
        judge("probe", name, ma, b.get("probes").and_then(|p| p.get(name)));
    }
    Ok((lines, bad))
}

pub fn run(a: &str, b: &str) -> ExitCode {
    match load(a).and_then(|ja| compare(&ja, &load(b)?)) {
        Ok((lines, bad)) => {
            lines.iter().for_each(|l| println!("{l}"));
            println!("{bad} metric(s) out of bounds");
            if bad == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("compare: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(wall: f64, makespan: f64, seed: u64) -> Json {
        json::parse(&format!(
            r#"{{"seed":{seed},"smoke":false,"workloads":{{"cg_halo":{{
                "end_to_end":{{"wall_s":{{"unit":"s","clock":"host","median":{wall},"min":1,"max":3,"n":5}},
                               "sim_makespan_ms":{{"unit":"sim_ms","clock":"sim","value":{makespan}}}}},
                "per_layer":{{"host.ns_per_access":{{"unit":"ns","clock":"host","value":{wall}}}}}}}}},
               "probes":{{"core.vp.local_get_ns":{{"unit":"ns","clock":"host","value":40}}}}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn within_bound_passes_and_gains_pass() {
        let base = file(2.0, 14.64, 1);
        assert_eq!(compare(&base, &file(2.45, 14.64, 1)).unwrap().1, 0);
        assert_eq!(compare(&base, &file(1.0, 14.64, 1)).unwrap().1, 0);
    }

    #[test]
    fn host_regression_past_the_bound_fails() {
        let (lines, bad) = compare(&file(2.0, 14.64, 1), &file(2.6, 14.64, 1)).unwrap();
        assert_eq!(bad, 1, "{lines:?}");
        assert!(lines
            .iter()
            .any(|l| l.starts_with("WORSE") && l.contains("wall_s")));
        // The unbounded per-layer twin of the same number is only shown.
        assert!(lines
            .iter()
            .any(|l| l.starts_with("info") && l.contains("host.ns_per_access")));
    }

    #[test]
    fn exact_metrics_must_be_equal_even_when_better() {
        assert_eq!(
            compare(&file(2.0, 14.64, 1), &file(2.0, 14.0, 1))
                .unwrap()
                .1,
            1
        );
    }

    #[test]
    fn different_seeds_do_not_compare() {
        assert!(compare(&file(2.0, 14.64, 1), &file(2.0, 14.64, 2)).is_err());
    }

    #[test]
    fn a_dropped_metric_is_a_violation() {
        let mut b = file(2.0, 14.64, 1);
        if let Json::Obj(kv) = &mut b {
            kv.retain(|(k, _)| k != "probes");
        }
        assert_eq!(compare(&file(2.0, 14.64, 1), &b).unwrap().1, 1);
    }
}
