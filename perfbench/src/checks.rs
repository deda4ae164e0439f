//! Independent checks of the program's outputs, computed by the benchmark
//! itself (no `cebinae_metrics`), and self-tests that feed each check a
//! doctored result it must reject.

use cebinae_check::oracle::Violation;
use cebinae_check::report::CampaignReport;
use cebinae_engine::Discipline;
use cebinae_net::DATA_FRAME_BYTES;

use crate::workloads::Summary;

/// Cebinae's JFI must beat FIFO's by this much on a signature row.
pub const DIRECTION_MARGIN: f64 = 0.2;
/// "Near line rate": bottleneck utilization over the whole run.
pub const LINE_RATE_FLOOR: f64 = 0.9;

/// Jain's index, `(Σx)² / (n·Σx²)`.
pub fn jain(xs: &[f64]) -> f64 {
    let sum: f64 = xs.iter().sum();
    let sq: f64 = xs.iter().map(|x| x * x).sum();
    if xs.is_empty() || sq <= 0.0 {
        return 1.0;
    }
    sum * sum / (xs.len() as f64 * sq)
}

fn as_f64(xs: &[u64]) -> Vec<f64> {
    xs.iter().map(|&x| x as f64).collect()
}

/// Max-min shares on a single bottleneck whose flows all have unbounded
/// demand: the ideal allocation is an equal split, so each flow's share is
/// its delivered bytes over the mean.
pub fn maxmin_shares(delivered: &[u64]) -> Vec<f64> {
    let mean = delivered.iter().sum::<u64>() as f64 / delivered.len().max(1) as f64;
    delivered
        .iter()
        .map(|&d| if mean > 0.0 { d as f64 / mean } else { 0.0 })
        .collect()
}

/// Bottleneck utilization over the whole run.
pub fn utilization(s: &Summary) -> f64 {
    let st = &s.link_stats[s.bneck];
    st.tx_bytes as f64 * 8.0 / (s.link_rates_bps[s.bneck] as f64 * s.duration_s)
}

/// Per-simulation checks: link conservation and capacity, delivered bytes
/// against the goodput series and the bottleneck, and the program's JFI.
pub fn check_sim(s: &Summary) -> Vec<String> {
    let mut out = Vec::new();
    let frame = DATA_FRAME_BYTES as u64;
    for (i, st) in s.link_stats.iter().enumerate() {
        let left = st
            .enq_bytes
            .checked_sub(st.tx_bytes)
            .and_then(|x| x.checked_sub(st.drop_queued_bytes));
        match left {
            None => out.push(format!(
                "{}: link {i} sent+evicted {} B > admitted {} B",
                s.label,
                st.tx_bytes + st.drop_queued_bytes,
                st.enq_bytes
            )),
            Some(q) if q > s.link_limits[i] + frame => out.push(format!(
                "{}: link {i} ends with {q} B queued > limit {} B",
                s.label, s.link_limits[i]
            )),
            Some(_) => {}
        }
        if st.tx_pkts + st.drop_queued_pkts > st.enq_pkts || st.drop_queued_pkts > st.drop_pkts {
            out.push(format!(
                "{}: link {i} packet counters do not conserve: {st:?}",
                s.label
            ));
        }
        let capacity_bits = s.link_rates_bps[i] as f64 * s.duration_s + 2.0 * 8.0 * frame as f64;
        if st.tx_bytes as f64 * 8.0 > capacity_bits {
            out.push(format!(
                "{}: link {i} sent {} bits > capacity {capacity_bits:.0}",
                s.label,
                st.tx_bytes * 8
            ));
        }
    }
    for (f, (&d, &r)) in s.delivered.iter().zip(&s.whole_run_bps).enumerate() {
        let from_series = r * s.duration_s / 8.0;
        if (from_series - d as f64).abs() > 0.5 {
            out.push(format!(
                "{}: flow {f} delivered {d} B but its goodput series ends at {from_series:.1} B",
                s.label
            ));
        }
    }
    let delivered: u64 = s.delivered.iter().sum();
    let bneck_bytes = s.link_stats[s.bneck].tx_bytes;
    if delivered > bneck_bytes {
        out.push(format!(
            "{}: flows delivered {delivered} B > {bneck_bytes} B the bottleneck sent",
            s.label
        ));
    }
    let ours = jain(&s.goodputs_bps);
    if (ours - s.program_jfi).abs() > 1e-9 {
        out.push(format!(
            "{}: program JFI {:.6} != recomputed {ours:.6}",
            s.label, s.program_jfi
        ));
    }
    out
}

/// The paper's direction on one Table 2 signature row: Cebinae's JFI is
/// clearly above FIFO's, by the program's numbers and by delivered bytes;
/// its most favoured flow holds a smaller max-min share than FIFO's; and
/// both reach near line rate.
pub fn check_direction(fifo: &Summary, ceb: &Summary) -> Vec<String> {
    let mut out = Vec::new();
    let (jf, jc) = (
        jain(&as_f64(&fifo.delivered)),
        jain(&as_f64(&ceb.delivered)),
    );
    if jc < jf + DIRECTION_MARGIN {
        out.push(format!(
            "row {}: delivered-byte JFI Cebinae {jc:.3} not above FIFO {jf:.3} by {DIRECTION_MARGIN}",
            ceb.group
        ));
    }
    if ceb.program_jfi < fifo.program_jfi + DIRECTION_MARGIN {
        out.push(format!(
            "row {}: JFI Cebinae {:.3} not above FIFO {:.3} by {DIRECTION_MARGIN}",
            ceb.group, ceb.program_jfi, fifo.program_jfi
        ));
    }
    let top = |s: &Summary| maxmin_shares(&s.delivered).into_iter().fold(0.0, f64::max);
    if top(ceb) >= top(fifo) {
        out.push(format!(
            "row {}: the most favoured flow's max-min share under Cebinae {:.2} is not below FIFO's {:.2}",
            ceb.group,
            top(ceb),
            top(fifo)
        ));
    }
    for s in [fifo, ceb] {
        let u = utilization(s);
        if u < LINE_RATE_FLOOR {
            out.push(format!(
                "{}: bottleneck utilization {u:.3} < {LINE_RATE_FLOOR}",
                s.label
            ));
        }
    }
    out
}

/// Campaign-level oracle verdicts must be clean.
pub fn check_campaign(r: &CampaignReport) -> Vec<String> {
    r.campaign_violations
        .iter()
        .map(|v| format!("campaign {}: {}: {}", r.base_seed, v.oracle, v.detail))
        .collect()
}

/// Every check that applies to a round's simulations and campaigns.
pub fn check_all(sims: &[Summary], campaigns: &[CampaignReport], signature: bool) -> Vec<String> {
    let mut out: Vec<String> = sims.iter().flat_map(check_sim).collect();
    if signature {
        for (fifo, ceb) in direction_pairs(sims) {
            out.extend(check_direction(fifo, ceb));
        }
    }
    out.extend(campaigns.iter().flat_map(check_campaign));
    out
}

/// FIFO and Cebinae legs of the same signature row (group 0 has none).
fn direction_pairs(sims: &[Summary]) -> Vec<(&Summary, &Summary)> {
    sims.iter()
        .filter(|s| s.group != 0 && s.discipline == Discipline::Fifo)
        .filter_map(|f| {
            sims.iter()
                .find(|c| c.group == f.group && c.discipline == Discipline::Cebinae)
                .map(|c| (f, c))
        })
        .collect()
}

/// Feed each check a doctored copy of a real result; every doctored copy
/// must be rejected. Returns the doctorings that slipped through.
pub fn self_tests(sims: &[Summary], campaigns: &[CampaignReport], signature: bool) -> Vec<String> {
    let mut missed = Vec::new();
    let expect_reject = |missed: &mut Vec<String>, what: &str, failures: Vec<String>| {
        if failures.is_empty() {
            missed.push(format!("self-test: {what} was not rejected"));
        }
    };
    if let Some(base) = sims.first() {
        let mut s = base.clone();
        s.delivered[0] -= 1.min(s.delivered[0]);
        let other = 1 % s.delivered.len();
        s.delivered[other] += 1;
        expect_reject(
            &mut missed,
            "a delivered byte moved between flows",
            check_sim(&s),
        );

        let mut s = base.clone();
        s.link_stats[s.bneck].tx_bytes *= 2;
        s.link_stats[s.bneck].enq_bytes *= 2;
        expect_reject(
            &mut missed,
            "bottleneck bytes above capacity",
            check_sim(&s),
        );

        let mut s = base.clone();
        s.link_stats[s.bneck].tx_pkts = s.link_stats[s.bneck].enq_pkts + 1;
        expect_reject(
            &mut missed,
            "more packets sent than admitted",
            check_sim(&s),
        );

        let mut s = base.clone();
        s.link_stats[s.bneck].enq_bytes += s.link_limits[s.bneck] + 2 * DATA_FRAME_BYTES as u64;
        expect_reject(
            &mut missed,
            "more bytes left queued than the buffer holds",
            check_sim(&s),
        );

        let mut s = base.clone();
        s.program_jfi += 0.01;
        expect_reject(&mut missed, "a program JFI off by 0.01", check_sim(&s));
    }
    if signature {
        match direction_pairs(sims).first() {
            Some(&(fifo, ceb)) => {
                let (mut f, mut c) = (fifo.clone(), ceb.clone());
                std::mem::swap(&mut f.program_jfi, &mut c.program_jfi);
                expect_reject(
                    &mut missed,
                    "FIFO and Cebinae JFIs swapped",
                    check_direction(&f, &c),
                );

                let (mut f, mut c) = (fifo.clone(), ceb.clone());
                std::mem::swap(&mut f.delivered, &mut c.delivered);
                expect_reject(
                    &mut missed,
                    "FIFO and Cebinae delivered bytes swapped",
                    check_direction(&f, &c),
                );

                let mut c = ceb.clone();
                c.link_stats[c.bneck].tx_bytes /= 2;
                expect_reject(
                    &mut missed,
                    "a Cebinae leg at half line rate",
                    check_direction(fifo, &c),
                );
            }
            None => missed.push("self-test: no FIFO/Cebinae pair to doctor".into()),
        }
    }
    if let Some(r) = campaigns.first() {
        let mut r = r.clone();
        r.campaign_violations.push(Violation {
            oracle: "fairness",
            detail: "doctored".into(),
        });
        expect_reject(
            &mut missed,
            "a campaign-level oracle violation",
            check_campaign(&r),
        );
    }
    missed
}
