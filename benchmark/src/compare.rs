//! `--compare A.json B.json`: one row per (metric, workload) of two full
//! reports, judged against the benchmark's own bounds.

use crate::json::Json;
use crate::metrics::{Better, Domain, EndToEnd, END_TO_END};
use crate::workloads::WORKLOADS;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Byte-equal values.
    Same,
    /// Not worse by more than the metric's bound (better counts).
    WithinBound,
    /// Worse by more than the bound, and the spread is too small to blame.
    Regressed,
    /// Worse by more than the bound but the runs' own spread is wider
    /// than the bound; or a value is missing; or the digests differ.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::WithinBound => "within bound",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
        }
    }

    fn passes(self) -> bool {
        matches!(self, Verdict::Same | Verdict::WithinBound)
    }
}

/// Judges `b` against base `a`. `spread` is the wider of the two runs'
/// own spreads for the metric. A simulated metric repeats exactly, so any
/// worsening at all is a regression; a host metric gets its bound.
pub fn verdict(metric: &EndToEnd, a: f64, b: f64, spread: f64) -> Verdict {
    if a == b {
        return Verdict::Same;
    }
    let worse_by = match metric.better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    };
    let bound = match metric.domain {
        Domain::Sim => 0.0,
        Domain::Host => metric.bound,
    };
    if worse_by <= bound {
        Verdict::WithinBound
    } else if spread > bound && metric.domain == Domain::Host {
        Verdict::Unresolved
    } else {
        Verdict::Regressed
    }
}

fn metric_of<'a>(report: &'a Json, workload: &str, metric: &str) -> Option<&'a Json> {
    report
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)
}

/// Renders the comparison table; the flag is true when no row is
/// `REGRESSED` or `unresolved`.
pub fn compare(a: &Json, b: &Json) -> (String, bool) {
    let mut out = format!(
        "{:<18} {:<20} {:>14} {:>14} {:>10}  verdict\n",
        "workload", "metric", "A", "B", "B/A"
    );
    let mut ok = true;
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let value = |r| metric_of(r, w.name, m.name)?.get("value")?.as_f64();
            let spread = |r| {
                metric_of(r, w.name, m.name)
                    .and_then(|e| e.get("spread"))
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0)
            };
            let (row, v) = match (value(a), value(b)) {
                (Some(va), Some(vb)) => (
                    format!("{va:>14.6} {vb:>14.6} {:>10.4}", vb / va),
                    verdict(m, va, vb, spread(a).max(spread(b))),
                ),
                _ => (
                    format!("{:>14} {:>14} {:>10}", "-", "-", "-"),
                    Verdict::Unresolved,
                ),
            };
            ok &= v.passes();
            out.push_str(&format!(
                "{:<18} {:<20} {row}  {}\n",
                w.name,
                m.name,
                v.as_str()
            ));
        }
        let digest = |r: &Json| {
            let d = r
                .get("workloads")?
                .get(w.name)?
                .get("sim_digest")?
                .as_str()?;
            Some(d.to_string())
        };
        let (da, db) = (digest(a), digest(b));
        let v = if da.is_some() && da == db {
            Verdict::Same
        } else {
            Verdict::Unresolved
        };
        ok &= v.passes();
        out.push_str(&format!(
            "{:<18} {:<20} {:>14} {:>14} {:>10}  {}\n",
            w.name,
            "sim_digest",
            da.as_deref().unwrap_or("-"),
            db.as_deref().unwrap_or("-"),
            "",
            v.as_str()
        ));
    }
    (out, ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str) -> &'static EndToEnd {
        END_TO_END.iter().find(|m| m.name == name).expect("defined")
    }

    #[test]
    fn host_metrics_get_their_bound_and_the_benefit_of_spread() {
        let lower = metric("host_us_per_element"); // bound 0.25, lower is better
        assert_eq!(verdict(lower, 10.0, 10.0, 0.0), Verdict::Same);
        assert_eq!(verdict(lower, 10.0, 12.4, 0.0), Verdict::WithinBound);
        assert_eq!(verdict(lower, 10.0, 5.0, 0.0), Verdict::WithinBound);
        assert_eq!(verdict(lower, 10.0, 12.6, 0.02), Verdict::Regressed);
        assert_eq!(verdict(lower, 10.0, 12.6, 0.3), Verdict::Unresolved);
        let higher = metric("sim_mcycles_per_s"); // higher is better
        assert_eq!(verdict(higher, 10.0, 9.5, 0.0), Verdict::WithinBound);
        assert_eq!(verdict(higher, 10.0, 7.0, 0.0), Verdict::Regressed);
        assert_eq!(verdict(higher, 10.0, 20.0, 0.0), Verdict::WithinBound);
    }

    #[test]
    fn simulated_metrics_must_not_worsen_at_all() {
        let cycles = metric("cycles_per_element");
        assert_eq!(verdict(cycles, 100.0, 100.0, 0.0), Verdict::Same);
        assert_eq!(verdict(cycles, 100.0, 100.001, 0.5), Verdict::Regressed);
        assert_eq!(verdict(cycles, 100.0, 99.0, 0.0), Verdict::WithinBound);
        assert_eq!(verdict(metric("ipc"), 0.5, 0.499, 0.5), Verdict::Regressed);
    }

    fn report(us: f64, digest: &str) -> Json {
        let workloads = WORKLOADS
            .iter()
            .map(|w| {
                let e2e = END_TO_END
                    .iter()
                    .map(|m| {
                        let value = if m.name == "host_us_per_element" {
                            us
                        } else {
                            1.0
                        };
                        let entry = vec![
                            ("value".to_string(), Json::Num(value)),
                            ("spread".to_string(), Json::Num(0.01)),
                        ];
                        (m.name.to_string(), Json::Obj(entry))
                    })
                    .collect();
                let body = vec![
                    ("sim_digest".to_string(), Json::Str(digest.into())),
                    ("end_to_end".to_string(), Json::Obj(e2e)),
                ];
                (w.name.to_string(), Json::Obj(body))
            })
            .collect();
        Json::Obj(vec![("workloads".into(), Json::Obj(workloads))])
    }

    #[test]
    fn table_flags_regressions_digest_changes_and_missing_values() {
        let base = report(10.0, "abc");
        let (table, ok) = compare(&base, &base);
        assert!(ok, "{table}");
        assert_eq!(
            table.lines().count(),
            1 + WORKLOADS.len() * (END_TO_END.len() + 1)
        );
        assert!(!table.contains("REGRESSED") && !table.contains("unresolved"));

        let (table, ok) = compare(&base, &report(13.0, "abc"));
        assert!(!ok);
        assert_eq!(table.matches("REGRESSED").count(), WORKLOADS.len());

        let (table, ok) = compare(&base, &report(10.0, "abd"));
        assert!(!ok);
        assert_eq!(table.matches("unresolved").count(), WORKLOADS.len());

        let (table, ok) = compare(&base, &Json::Obj(vec![]));
        assert!(!ok);
        assert!(!table.contains("same"));
    }
}
