//! `fecbench compare`: judges a change against its parent from recorded
//! runs (`run --all` records, one JSON object per line).
//!
//! - The claimed metric on the claimed workload is *improved* only if
//!   at least 10 seed-paired runs exist, the change wins at least 9 in
//!   10 pairs (ties count for neither side), and the medians differ by
//!   more than the distance between the parent's quartiles.
//! - Every other end-to-end metric on every workload must not be worse
//!   than the parent's median by more than its bound in
//!   `BENCHMARK.json`. Where the parent's own spread exceeds the bound
//!   the pairing is *unresolved*, unless every change run beats every
//!   parent run.
//!
//! One row per workload: improved, no change, regressed or unresolved.
//! Exits 1 if any workload regressed.

use crate::stats::{iqr_share, median, quartiles};
use crate::Flags;
use fec_trace::{parse_json, Json};
use std::collections::BTreeMap;

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum Verdict {
    NoChange,
    Improved,
    Unresolved,
    Regressed,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::NoChange => "no change",
            Verdict::Improved => "improved",
            Verdict::Unresolved => "unresolved",
            Verdict::Regressed => "regressed",
        }
    }
}

struct Bound {
    name: String,
    higher_is_better: bool,
    bound: f64,
}

/// Runs of one side, keyed by (workload, metric): (seed, value) pairs
/// in file order.
type Side = BTreeMap<(String, String), Vec<(u64, f64)>>;

pub fn cmd(args: &[String]) -> Result<i32, String> {
    let f = Flags::parse(args, &["metric", "workload", "spec"], &[])?;
    let [parent, change] = f.positional.as_slice() else {
        return Err("compare needs PARENT.jsonl and CHANGE.jsonl".into());
    };
    let claim = match (f.get("metric"), f.get("workload")) {
        (Some(m), Some(w)) => Some((m, w)),
        (None, None) => None,
        _ => return Err("--metric and --workload name one claim together".into()),
    };
    let bounds = read_bounds(f.get("spec").unwrap_or("BENCHMARK.json"))?;
    let (a, order) = read_runs(parent)?;
    let (b, _) = read_runs(change)?;
    if let Some((m, _)) = claim {
        if !bounds.iter().any(|x| x.name == m) {
            return Err(format!("{m} is not an end-to-end metric of BENCHMARK.json"));
        }
    }

    let mut any_regressed = false;
    for w in &order {
        let mut row = Verdict::NoChange;
        let mut details = Vec::new();
        for bound in &bounds {
            let key = (w.clone(), bound.name.clone());
            let (Some(pa), Some(pb)) = (a.get(&key), b.get(&key)) else {
                row = row.max(Verdict::Unresolved);
                details.push(format!("{}: missing runs", bound.name));
                continue;
            };
            let claimed = claim == Some((bound.name.as_str(), w.as_str()));
            let (v, note) = judge(pa, pb, bound, claimed);
            row = row.max(v);
            details.push(format!("{} {note}", bound.name));
        }
        any_regressed |= row == Verdict::Regressed;
        println!("{w:<14} {:<10}  {}", row.label(), details.join("; "));
    }
    Ok(i32::from(any_regressed))
}

fn judge(a: &[(u64, f64)], b: &[(u64, f64)], bound: &Bound, claimed: bool) -> (Verdict, String) {
    let va: Vec<f64> = a.iter().map(|x| x.1).collect();
    let vb: Vec<f64> = b.iter().map(|x| x.1).collect();
    let (ma, mb) = (median(&va), median(&vb));
    let better = |x: f64, y: f64| {
        if bound.higher_is_better {
            x > y
        } else {
            x < y
        }
    };
    let worse_by = if ma == 0.0 {
        0.0
    } else if bound.higher_is_better {
        (ma - mb) / ma
    } else {
        (mb - ma) / ma
    };
    let mut note = format!(
        "median {:+.2}% (bound {:.0}%, n {}/{})",
        if ma == 0.0 {
            0.0
        } else {
            100.0 * (mb - ma) / ma
        },
        100.0 * bound.bound,
        va.len(),
        vb.len()
    );
    let all_better = vb.iter().all(|&y| va.iter().all(|&x| better(y, x)));
    let bound_verdict = if ma == 0.0 || (iqr_share(&va) > bound.bound && !all_better) {
        Verdict::Unresolved
    } else if worse_by > bound.bound {
        Verdict::Regressed
    } else {
        Verdict::NoChange
    };
    if !claimed || bound_verdict == Verdict::Regressed {
        return (bound_verdict, note);
    }
    // the claim: seed-paired runs, 9/10 wins, gap beyond parent IQR
    let paired: Vec<(f64, f64)> = a
        .iter()
        .filter_map(|&(seed, x)| b.iter().find(|p| p.0 == seed).map(|p| (x, p.1)))
        .collect();
    let wins = paired.iter().filter(|&&(x, y)| better(y, x)).count();
    let (q1, q3) = quartiles(&va);
    let met = paired.len() >= 10
        && wins * 10 >= paired.len() * 9
        && better(mb, ma)
        && (mb - ma).abs() > q3 - q1;
    note.push_str(&format!(
        ", claim: {wins}/{} wins, gap {:.4} vs parent IQR {:.4}",
        paired.len(),
        (mb - ma).abs(),
        q3 - q1
    ));
    (
        if met {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        },
        note,
    )
}

fn read_bounds(path: &str) -> Result<Vec<Bound>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let spec = parse_json(&text).map_err(|e| format!("{path}: {e}"))?;
    let Some(Json::Arr(list)) = spec.get("end_to_end") else {
        return Err(format!("{path}: no end_to_end list"));
    };
    list.iter()
        .map(|m| {
            Some(Bound {
                name: m.get("name")?.as_str()?.to_string(),
                higher_is_better: m.get("better")?.as_str()? == "higher",
                bound: m.get("bound")?.as_num()?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| format!("{path}: malformed end_to_end entry"))
}

/// Reads run records; returns them keyed by (workload, metric) and the
/// workloads in first-seen order.
fn read_runs(path: &str) -> Result<(Side, Vec<String>), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut side = Side::new();
    let mut order = Vec::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let bad = |what: &str| format!("{path}:{}: {what}", i + 1);
        let v = parse_json(line).map_err(|e| bad(&e.to_string()))?;
        let w = v
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("no workload"))?;
        let seed = v
            .get("seed")
            .and_then(Json::as_num)
            .ok_or_else(|| bad("no seed"))? as u64;
        let Some(Json::Obj(metrics)) = v.get("result").and_then(|r| r.get("metrics")) else {
            return Err(bad("no result.metrics"));
        };
        if !order.iter().any(|o| o == w) {
            order.push(w.to_string());
        }
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(Json::as_num)
                .ok_or_else(|| bad("metric without a value"))?;
            side.entry((w.to_string(), name.clone()))
                .or_default()
                .push((seed, value));
        }
    }
    Ok((side, order))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bound() -> Bound {
        Bound {
            name: "wall_s".into(),
            higher_is_better: false,
            bound: 0.1,
        }
    }

    fn runs(values: &[f64]) -> Vec<(u64, f64)> {
        values
            .iter()
            .enumerate()
            .map(|(i, &v)| (i as u64, v))
            .collect()
    }

    #[test]
    fn small_moves_are_no_change_and_large_ones_regress() {
        let a = runs(&[1.0, 1.01, 0.99, 1.0, 1.02]);
        let same = runs(&[1.01, 1.0, 1.0, 0.99, 1.01]);
        assert_eq!(judge(&a, &same, &bound(), false).0, Verdict::NoChange);
        let slow = runs(&[1.2, 1.21, 1.19, 1.2, 1.22]);
        assert_eq!(judge(&a, &slow, &bound(), false).0, Verdict::Regressed);
    }

    #[test]
    fn a_noisy_parent_leaves_the_pairing_unresolved() {
        let a = runs(&[0.5, 1.0, 1.5, 1.0, 0.7]);
        let b = runs(&[1.05, 1.0, 0.95, 1.0, 1.0]);
        assert_eq!(judge(&a, &b, &bound(), false).0, Verdict::Unresolved);
        // unless every change run beats every parent run
        let fast = runs(&[0.4, 0.41, 0.39, 0.4, 0.42]);
        assert_eq!(judge(&a, &fast, &bound(), false).0, Verdict::NoChange);
    }

    #[test]
    fn a_claim_needs_ten_pairs_nine_wins_and_a_gap() {
        let a = runs(&[1.0, 1.01, 0.99, 1.0, 1.02, 1.0, 0.98, 1.01, 1.0, 0.99]);
        let b = runs(&[0.9, 0.91, 0.89, 0.9, 0.92, 0.9, 0.88, 0.91, 0.9, 1.5]);
        assert_eq!(judge(&a, &b, &bound(), true).0, Verdict::Improved);
        assert_eq!(
            judge(&a[..9], &b[..9], &bound(), true).0,
            Verdict::Unresolved
        );
        let mixed = runs(&[0.9, 1.1, 0.9, 1.1, 0.9, 1.1, 0.9, 1.1, 0.9, 0.9]);
        assert_eq!(judge(&a, &mixed, &bound(), true).0, Verdict::Unresolved);
    }
}
