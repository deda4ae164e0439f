//! The repository benchmark: four simulator workloads measured end to end
//! with tracing off, and layer by layer in a separate traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <manyflow-fq|table2-signature|bbr-deepbuf|check-campaign> \
//!     --seed <u64> --seconds <n> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. Everything runs in this process on
//! one simulation thread (the traced run's two-worker campaign aside).

mod checks;
mod layers;
mod workloads;

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use workloads::{Inputs, Round, Workload};

const USAGE: &str = "usage: cebinae-perfbench --workload <manyflow-fq|table2-signature|bbr-deepbuf|check-campaign> --seed <u64> --seconds <1..=600> --trace <0|1>";

static CLOCK_READS: AtomicU64 = AtomicU64::new(0);

/// The benchmark's only wall-clock read.
pub fn now() -> Instant {
    CLOCK_READS.fetch_add(1, Ordering::Relaxed);
    // det-ok: the benchmark measures host time; no reading feeds a simulation
    Instant::now()
}

/// Calls of [`now`] so far.
pub fn clock_reads() -> u64 {
    CLOCK_READS.load(Ordering::Relaxed)
}

pub fn secs_since(a: Instant, b: Instant) -> f64 {
    b.duration_since(a).as_secs_f64()
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&s) {
                    return Err("--seconds must be in 1..=600".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Peak resident set of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One named metric of the result line.
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

pub fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

/// What a run accumulates across rounds besides timings.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    first_fingerprint: Option<String>,
}

impl Tally {
    /// Count a round's operations and check its outputs. The first round
    /// also runs the self-tests and, on the campaign, the pipeline-parity
    /// check; later rounds must reproduce the first one's outputs.
    pub fn record(&mut self, w: Workload, round: &Round) {
        self.attempted += round.attempted;
        self.failed += round.failed;
        self.problems.extend(checks::check_all(
            &round.sims,
            &round.campaigns,
            w == Workload::Table2Signature,
        ));
        let fp = round.fingerprint();
        match &self.first_fingerprint {
            None => {
                report_first_round(round);
                self.problems.extend(checks::self_tests(
                    &round.sims,
                    &round.campaigns,
                    w == Workload::Table2Signature,
                ));
                if w == Workload::CheckCampaign {
                    self.problems
                        .extend(layers::pipeline_parity(&round.campaigns));
                }
                self.first_fingerprint = Some(fp);
            }
            Some(first) if *first != fp => self.problems.push(format!(
                "rounds of the same inputs differ:\n  {first}\n  {fp}"
            )),
            Some(_) => {}
        }
    }
}

/// Per-simulation figures and failed operations of the first round, on
/// stderr.
fn report_first_round(round: &Round) {
    for s in &round.sims {
        let shares = checks::maxmin_shares(&s.delivered);
        eprintln!(
            "{}: jfi {:.3} (delivered {:.3}), utilization {:.3}, max-min share {:.3}..{:.3}, \
             {} pkts in {:.3} s ({:.0} ns/pkt), peak end-of-run flight {} B",
            s.label,
            s.program_jfi,
            checks::jain(&s.delivered.iter().map(|&d| d as f64).collect::<Vec<_>>()),
            checks::utilization(s),
            shares.iter().copied().fold(f64::INFINITY, f64::min),
            shares.iter().copied().fold(0.0, f64::max),
            s.tx_pkts,
            s.run_s,
            s.run_s * 1e9 / s.tx_pkts.max(1) as f64,
            s.peak_flight_bytes,
        );
    }
    for o in round.campaigns.iter().flat_map(|c| &c.outcomes) {
        for v in &o.violations {
            eprintln!(
                "failed: seed {} ({}): {}: {}",
                o.seed, o.desc, v.oracle, v.detail
            );
        }
    }
    for n in round.neutrality.iter().filter(|n| !n.neutral()) {
        eprintln!(
            "failed: {}: delivered bytes differ with telemetry on",
            n.label
        );
    }
}

/// The end-to-end run: tracing off. Each time metric takes, per piece of
/// program work, the fastest time it had over the run's rounds: the host
/// slows single rounds by up to half for seconds at a time, and the
/// fastest time of each operation is what repeats from run to run.
fn plain_run(inputs: &Inputs, w: Workload, seconds: u64) -> (Tally, Vec<Metric>) {
    let start = now();
    let mut tally = Tally::default();
    let mut walls = Vec::new();
    let (mut wall, mut run, mut setup) =
        (Fastest::default(), Fastest::default(), Fastest::default());
    let mut tx_pkts;
    loop {
        let round_start = now();
        let round = inputs.run_round(w.setup_reps());
        walls.push(round.wall_s);
        wall.fold_round(&round.op_wall_s);
        run.fold_round(&round.op_run_s);
        setup.fold_round(&round.op_setup_s);
        tx_pkts = round.counts.tx_pkts;
        tally.record(w, &round);
        // Stop before a round that would end past the budget.
        let t = now();
        if secs_since(start, t) + secs_since(round_start, t) > seconds as f64 {
            break;
        }
    }
    eprintln!(
        "{}: {} rounds, wall_s per round {walls:?}",
        w.name(),
        walls.len()
    );
    let metrics = vec![
        metric("wall_s", "s", wall.sum()),
        metric("setup_s", "s", setup.sum()),
        metric("sim_pkts_per_s", "pkts/s", tx_pkts as f64 / run.sum()),
        metric("peak_rss_mb", "MB", peak_rss_mb()),
    ];
    (tally, metrics)
}

/// Per piece of program work, the fastest time seen over the rounds.
#[derive(Default)]
struct Fastest(Vec<f64>);

impl Fastest {
    fn fold_round(&mut self, round: &[f64]) {
        if self.0.is_empty() {
            self.0 = round.to_vec();
        }
        for (m, x) in self.0.iter_mut().zip(round) {
            *m = m.min(*x);
        }
    }

    fn sum(&self) -> f64 {
        self.0.iter().sum()
    }
}

fn json_line(correct: bool, tally: &Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let inputs = Inputs::generate(args.workload, args.seed);
    let (tally, metrics) = if args.trace {
        layers::traced_run(&inputs, args.workload, args.seconds)
    } else {
        plain_run(&inputs, args.workload, args.seconds)
    };
    let finite = metrics.iter().all(|m| m.value.is_finite());
    for p in &tally.problems {
        eprintln!("CHECK FAILED: {p}");
    }
    if !finite {
        eprintln!("CHECK FAILED: a metric is not finite");
    }
    let shown: Vec<Metric> = metrics
        .into_iter()
        .map(|m| {
            if m.value.is_finite() {
                m
            } else {
                Metric { value: 0.0, ..m }
            }
        })
        .collect();
    println!(
        "{}",
        json_line(tally.problems.is_empty() && finite, &tally, &shown)
    );
}
