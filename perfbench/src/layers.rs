//! The traced run: per-layer numbers, measured from outside the program.
//!
//! Three sources, all in the benchmark's own code:
//!
//! * spans around the calls into each layer's public functions (scenario
//!   builders, `Simulation::new`, `Simulation::run`, the harness's
//!   post-processing, each oracle family);
//! * exact work counts read from each `SimResult`;
//! * the engine-internal layers (timing-wheel scheduler, FIFO, FQ-CoDel,
//!   Cebinae, the TCP endpoints, each CCA) driven alone, with inputs shaped
//!   like the workload's, under wall timing.
//!
//! The ledger multiplies each layer's count by its isolated cost per
//! operation and divides by the host time spent inside `Simulation::run`;
//! what is left is the unattributed residual (event dispatch, link
//! service, the express path, sampling, cache effects of the whole run).

use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;

use cebinae::{CebinaeConfig, CebinaeQdisc};
use cebinae_check::report::{CampaignReport, SeedOutcome};
use cebinae_check::shrink::Overrides;
use cebinae_engine::QdiscSpec;
use cebinae_fq::{FqCoDelConfig, FqCoDelQdisc};
use cebinae_net::{
    BufferConfig, FifoQdisc, FlowId, Packet, PacketKind, Qdisc, DATA_FRAME_BYTES, MSS,
};
use cebinae_par::TrialPool;
use cebinae_sim::rng::DetRng;
use cebinae_sim::{tx_time, Duration, Scheduler, Time, WheelScheduler};
use cebinae_transport::{
    AckEvent, CcKind, RateSample, TcpConfig, TcpOutput, TcpReceiver, TcpSender, TimerAction,
};

use crate::workloads::{
    chaos_overrides, Counts, Inputs, Round, Summary, Times, Workload, CAMPAIGN_BASE_SEED,
};
use crate::{clock_reads, metric, now, secs_since, Metric, Tally};

/// Seeds of the one- and two-worker campaigns behind `par.speedup_2w`.
const PAR_SEEDS: u64 = 48;
/// Operations per isolated drive of a qdisc or the scheduler.
const DRIVE_OPS: usize = 300_000;
/// ACKs per isolated CCA drive.
const CC_ACKS: usize = 200_000;

/// The stage-by-stage check pipeline must reproduce `check_seed`: seed,
/// description, violations, events and fairness bits alike.
fn parity(ours: &[SeedOutcome], theirs: &[SeedOutcome]) -> Vec<String> {
    let fairness = |o: &SeedOutcome| {
        o.fairness
            .map(|f| (f.jfi_ceb.to_bits(), f.jfi_fifo.to_bits()))
    };
    let mut out = Vec::new();
    if ours.len() < theirs.len() {
        out.push(format!(
            "the staged pipeline has {} outcomes, check_seed {}",
            ours.len(),
            theirs.len()
        ));
    }
    for (a, b) in ours.iter().zip(theirs) {
        let same = a.seed == b.seed
            && a.desc == b.desc
            && a.violations == b.violations
            && a.events == b.events
            && fairness(a) == fairness(b);
        if !same {
            out.push(format!(
                "seed {}: the staged check pipeline disagrees with check_seed ({a:?} vs {b:?})",
                b.seed
            ));
        }
    }
    out
}

/// Parity on the first plain and the first chaos seed of the campaign
/// (every run); the traced run also holds the first [`PAR_SEEDS`] plain
/// seeds to the one-worker campaign.
pub fn pipeline_parity(campaigns: &[CampaignReport]) -> Vec<String> {
    let firsts = [Overrides::default(), chaos_overrides(CAMPAIGN_BASE_SEED)];
    if campaigns.len() < firsts.len() {
        return vec![format!("{} campaigns in a round, not 2", campaigns.len())];
    }
    firsts
        .into_iter()
        .zip(campaigns)
        .flat_map(|(ov, report)| {
            let theirs = cebinae_check::check_seed(CAMPAIGN_BASE_SEED, ov);
            parity(&report.outcomes, std::slice::from_ref(&theirs))
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Isolated drives
// ---------------------------------------------------------------------------

fn data_pkt(flow: usize, seq: u64, now: Time) -> Packet {
    Packet::data(FlowId::from(flow), seq, MSS, false, now)
}

/// Timing wheel at the engine's pending population for `flows` dumbbell
/// flows: one lazily re-armed RTO timer per flow (the engine moves RTO
/// deadlines later without scheduler operations, and re-posts a timer
/// that fires early) and, per flow, the link events of its two access
/// links each way. A popped link event posts its successor one
/// serialization slot or one propagation delay later, alternately.
/// Nanoseconds per popped event.
fn drive_wheel(flows: usize, slot: Duration, rtt: Duration) -> f64 {
    let flows = flows.max(1);
    let mut rng = DetRng::seed_from_u64(0x3EE1);
    let gaps: Vec<Duration> = (0..4096)
        .map(|i| {
            if i % 2 == 0 {
                slot
            } else {
                Duration(rng.gen_range_u64(1_000, (rtt.as_nanos() / 2).max(2_000)))
            }
        })
        .collect();
    let rto = Duration::from_millis(200);
    let link_event = u32::MAX;
    let mut w: WheelScheduler<u32> = WheelScheduler::new();
    for f in 0..flows {
        w.post(Time::ZERO + rto + gaps[(2 * f + 1) % gaps.len()], f as u32);
        for k in 0..4 {
            w.post(
                Time::ZERO + gaps[(8 * f + 2 * k + 1) % gaps.len()],
                link_event,
            );
        }
    }
    let start = now();
    for i in 0..DRIVE_OPS {
        let (t, ev) = w.pop().expect("the drive keeps the wheel populated");
        if ev == link_event {
            w.post(t + gaps[i % gaps.len()], link_event);
        } else {
            w.post(t + rto, ev);
        }
    }
    secs_since(start, now()) * 1e9 / DRIVE_OPS as f64
}

/// A FIFO held at half its buffer: one enqueue and one dequeue per packet.
fn drive_fifo(buffer: BufferConfig) -> f64 {
    let mut q = FifoQdisc::new(buffer);
    let depth = (buffer.bytes / DATA_FRAME_BYTES as u64 / 2).max(1);
    for s in 0..depth {
        let _ = q.enqueue(data_pkt(0, s, Time::ZERO), Time::ZERO);
    }
    let start = now();
    for i in 0..DRIVE_OPS {
        let t = Time(i as u64);
        let _ = black_box(q.enqueue(data_pkt(i % 64, i as u64, t), t));
        black_box(q.dequeue(t));
    }
    secs_since(start, now()) * 1e9 / DRIVE_OPS as f64
}

/// Offer packets from `flows` flows (a fifth of them carrying half the
/// load) at `overload` times the line rate, serve the link at line rate,
/// and run the qdisc's control events at the instants it asks for.
/// Nanoseconds per offered packet.
fn drive_qdisc(q: &mut dyn Qdisc, flows: usize, rate_bps: u64, overload: f64) -> f64 {
    let flows = flows.max(1);
    let heavy = (flows / 5).max(1);
    let mut rng = DetRng::seed_from_u64(0x0D15C);
    let picks: Vec<usize> = (0..8192)
        .map(|_| {
            if rng.gen_bool(0.5) {
                rng.gen_range_usize(0, heavy)
            } else {
                rng.gen_range_usize(0, flows)
            }
        })
        .collect();
    let slot = tx_time(DATA_FRAME_BYTES as u64, rate_bps);
    let gap = Duration((slot.as_nanos() as f64 / overload).max(1.0) as u64);
    let mut t = Time::ZERO;
    let mut link_free = Time::ZERO;
    let mut next_ctl = q.activate(Time::ZERO);
    let start = now();
    for i in 0..DRIVE_OPS {
        t += gap;
        loop {
            let ctl_due = next_ctl.filter(|&c| c <= t);
            let tx_due = (link_free <= t && q.pkt_len() > 0).then_some(link_free);
            match (ctl_due, tx_due) {
                (Some(c), tx) if tx.is_none_or(|x| c <= x) => next_ctl = q.control(c),
                (_, Some(x)) => {
                    let out = black_box(q.dequeue(x));
                    link_free = x + out.map_or(slot, |p| tx_time(u64::from(p.size), rate_bps));
                }
                _ => break,
            }
        }
        link_free = link_free.max(t);
        let _ = black_box(q.enqueue(data_pkt(picks[i % picks.len()], i as u64, t), t));
    }
    secs_since(start, now()) * 1e9 / DRIVE_OPS as f64
}

/// Apply a sender's output: queue its packets, note its timers.
fn absorb(
    out: TcpOutput,
    pipe: &mut VecDeque<Packet>,
    pace: &mut Option<Time>,
    rto: &mut Option<Time>,
) {
    pipe.extend(out.packets);
    if out.pace_at.is_some() {
        *pace = out.pace_at;
    }
    match out.rto {
        Some(TimerAction::Set(at)) => *rto = Some(at),
        Some(TimerAction::Cancel) => *rto = None,
        None => {}
    }
}

/// TCP connections that open with a `flight_segs` window over a pipe of
/// that many segments and lose each segment with probability `loss`: the
/// first window's ACKs (SACK scoreboard, recovery, the CCA) are timed,
/// episode after episode, until enough ACKs are counted. Nanoseconds per
/// ACK, sender and receiver together.
fn drive_sender(cc: CcKind, flight_segs: u64, loss: f64, rtt: Duration) -> f64 {
    let flight = flight_segs.max(2);
    let step = Duration((rtt.as_nanos() / flight).max(1));
    let mut rng = DetRng::seed_from_u64(0x5E9D ^ flight);
    let (mut acks, mut spent) = (0u64, 0.0);
    while acks < 20_000 {
        let mut cfg = TcpConfig::with_cc(cc);
        cfg.init_cwnd_segs = u32::try_from(flight).unwrap_or(u32::MAX);
        cfg.rwnd = flight * u64::from(MSS);
        let mut snd = TcpSender::new(FlowId::from(0usize), cfg);
        let mut rcv = TcpReceiver::new(FlowId::from(0usize));
        let mut pipe: VecDeque<Packet> = VecDeque::new();
        let (mut pace_at, mut rto_at): (Option<Time>, Option<Time>) = (None, None);
        let mut t = Time::ZERO;
        let start = now();
        absorb(snd.start(t), &mut pipe, &mut pace_at, &mut rto_at);
        for _ in 0..flight {
            t += step;
            if pace_at.is_some_and(|p| p <= t) {
                pace_at = None;
                absorb(snd.on_pace_timer(t), &mut pipe, &mut pace_at, &mut rto_at);
            }
            let Some(pkt) = pipe.pop_front() else {
                continue;
            };
            if rng.gen_bool(loss) {
                continue;
            }
            let ack = rcv.on_data(&pkt, t);
            let PacketKind::Ack {
                ack_seq,
                ece,
                echo_ts,
                echo_retx,
                sack,
            } = ack.kind
            else {
                continue;
            };
            absorb(
                snd.on_ack(ack_seq, ece, echo_ts, echo_retx, &sack, t),
                &mut pipe,
                &mut pace_at,
                &mut rto_at,
            );
            acks += 1;
        }
        spent += secs_since(start, now());
    }
    spent * 1e9 / acks as f64
}

/// A CCA fed clean full-segment ACKs at a fixed RTT, with a loss signal
/// every few thousand ACKs so the window keeps cycling. Nanoseconds per
/// ACK.
fn drive_cc(kind: CcKind, rtt: Duration) -> f64 {
    let mss = u64::from(MSS);
    let mut cc = kind.build(MSS, 10 * mss);
    let mut t = Time::ZERO;
    let mut delivered = 0u64;
    let start = now();
    for i in 0..CC_ACKS {
        t += Duration::from_micros(10);
        delivered += mss;
        let flight = cc.cwnd();
        cc.on_ack(black_box(&AckEvent {
            now: t,
            newly_acked: mss,
            rtt: Some(rtt),
            min_rtt: Some(rtt),
            newly_lost: 0,
            flight,
            in_recovery: false,
            rate: Some(RateSample {
                delivery_rate: flight as f64 / rtt.as_secs_f64(),
                is_app_limited: false,
                delivered: mss,
                delivered_total: delivered,
                delivered_at_send: delivered.saturating_sub(flight),
            }),
            ece: false,
        }));
        if i % 4096 == 4095 {
            cc.on_loss(t, flight);
        }
    }
    secs_since(start, now()) * 1e9 / CC_ACKS as f64
}

// ---------------------------------------------------------------------------
// The traced run
// ---------------------------------------------------------------------------

/// Shapes the isolated drives take from the workload.
struct WorkShape {
    flows_per_sim: usize,
    /// Bottleneck rate and longest RTT of the workload's first simulation.
    rate_bps: u64,
    rtt: Duration,
    fifo: BufferConfig,
    /// Qdisc configuration with (flows, line rate).
    fq: (FqCoDelConfig, (usize, u64)),
    ceb: (CebinaeConfig, (usize, u64)),
}

impl WorkShape {
    fn of(round: &Round) -> WorkShape {
        let c = &round.counts;
        let flows_per_sim = (c.flows / c.sims.max(1)) as usize;
        let rtt = Duration::from_millis(round.sims.first().map_or(50, |s| s.max_rtt_ms.max(1)));
        let rate_bps = round
            .sims
            .first()
            .map_or(100_000_000, |s| s.link_rates_bps[s.bneck]);
        // The first bottleneck of each kind sets that qdisc's drive; a
        // workload without one gets a default shape.
        let with = |s: &Summary| (s.delivered.len(), s.link_rates_bps[s.bneck]);
        let fifo = round
            .sims
            .iter()
            .find_map(|s| match &s.bneck_spec {
                QdiscSpec::Fifo { buffer } => Some(*buffer),
                _ => None,
            })
            // Unmanaged links default to a 4096-MTU FIFO in the engine.
            .unwrap_or(BufferConfig::mtus(4096));
        let fq = round
            .sims
            .iter()
            .find_map(|s| match &s.bneck_spec {
                QdiscSpec::FqCoDel(cfg) => Some((cfg.clone(), with(s))),
                _ => None,
            })
            .unwrap_or_else(|| {
                let limit = BufferConfig::mtus(1024).bytes;
                (
                    FqCoDelConfig::ideal_with_limit(limit),
                    (flows_per_sim, 100_000_000),
                )
            });
        let ceb = round
            .sims
            .iter()
            .find_map(|s| match &s.bneck_spec {
                QdiscSpec::Cebinae(cfg) => Some((cfg.clone(), with(s))),
                _ => None,
            })
            .unwrap_or_else(|| {
                let cfg = CebinaeConfig::for_link(100_000_000, BufferConfig::mtus(420), rtt * 2);
                (cfg, (flows_per_sim, 100_000_000))
            });
        WorkShape {
            flows_per_sim,
            rate_bps,
            rtt,
            fifo,
            fq,
            ceb,
        }
    }
}

/// Per-operation host costs of the layers driven alone, ns.
struct Drives {
    wheel: f64,
    fifo: f64,
    fq: f64,
    ceb: f64,
    /// Per (CCA label, flight bucket): ns per ACK.
    sender: BTreeMap<(&'static str, u32), f64>,
    cc: [(CcKind, f64); 4],
}

impl Drives {
    fn measure(shape: &WorkShape, c: &Counts) -> Drives {
        let drop_rate = if c.fq_pkts > 0 {
            c.fq_drops as f64 / c.fq_pkts as f64
        } else {
            0.01
        };
        let (fq_cfg, (fq_flows, fq_rate)) = &shape.fq;
        let mut fq = FqCoDelQdisc::new(fq_cfg.clone());
        let fq_ns = drive_qdisc(
            &mut fq,
            *fq_flows,
            *fq_rate,
            1.0 / (1.0 - drop_rate.min(0.5)),
        );
        let (ceb_cfg, (ceb_flows, ceb_rate)) = &shape.ceb;
        let mut ceb = CebinaeQdisc::new(ceb_cfg.clone(), *ceb_rate, 1);
        let ceb_ns = drive_qdisc(&mut ceb, *ceb_flows, *ceb_rate, 1.05);
        let loss = (c.retx_pkts as f64 / c.acks.max(1) as f64).min(0.05);
        let sender = c
            .ack_load
            .iter()
            .map(|(&k, l)| (k, drive_sender(l.cc, l.flight_segs(), loss, shape.rtt)))
            .collect();
        Drives {
            wheel: drive_wheel(
                shape.flows_per_sim,
                tx_time(DATA_FRAME_BYTES as u64, shape.rate_bps),
                shape.rtt,
            ),
            fifo: drive_fifo(shape.fifo),
            fq: fq_ns,
            ceb: ceb_ns,
            sender,
            cc: [CcKind::NewReno, CcKind::Cubic, CcKind::Vegas, CcKind::Bbr]
                .map(|k| (k, drive_cc(k, shape.rtt))),
        }
    }

    fn cc_ns(&self, kind: CcKind) -> Option<f64> {
        self.cc.iter().find(|(k, _)| *k == kind).map(|&(_, ns)| ns)
    }
}

/// The campaign at one worker against two, with the same report bytes;
/// the one-worker outcomes must also equal the staged pipeline's.
fn par_speedup(tally: &mut Tally, staged: &CampaignReport) -> f64 {
    let t0 = now();
    let one =
        cebinae_check::run_campaign(CAMPAIGN_BASE_SEED, PAR_SEEDS, &TrialPool::with_threads(1));
    let t1 = now();
    let two =
        cebinae_check::run_campaign(CAMPAIGN_BASE_SEED, PAR_SEEDS, &TrialPool::with_threads(2));
    let t2 = now();
    if one.render() != two.render() {
        tally
            .problems
            .push("the campaign report differs between one and two workers".into());
    }
    tally
        .problems
        .extend(parity(&staged.outcomes, &one.outcomes));
    secs_since(t0, t1) / secs_since(t1, t2)
}

/// Host cost of one [`now`], ns.
fn clock_read_ns() -> f64 {
    const READS: usize = 200_000;
    let start = now();
    for _ in 0..READS {
        black_box(now());
    }
    secs_since(start, now()) * 1e9 / READS as f64
}

/// Rounds (without set-up repeats) for most of the budget, then the
/// isolated drives (and, on the campaign, the two-worker run).
pub fn traced_run(inputs: &Inputs, w: Workload, seconds: u64) -> (Tally, Vec<Metric>) {
    let start = now();
    let mut tally = Tally::default();
    let mut rounds = 0u64;
    let mut t = Times::default();
    let reads_before = clock_reads();
    let round = loop {
        let round = inputs.run_round(0);
        rounds += 1;
        tally.record(w, &round);
        t.add(&round.times);
        if secs_since(start, now()) >= seconds as f64 * 0.6 {
            break round;
        }
    };
    // The spans are the tracing: every clock read of a round, at the
    // cost of one read alone.
    let reads_per_round = (clock_reads() - reads_before) as f64 / rounds as f64;
    let overhead_s = reads_per_round * clock_read_ns() * 1e-9;
    let per_round = |x: f64| x / rounds as f64;
    let c = &round.counts;
    let shape = WorkShape::of(&round);
    let d = Drives::measure(&shape, c);
    let speedup = match (w, round.campaigns.first()) {
        (Workload::CheckCampaign, Some(staged)) => par_speedup(&mut tally, staged),
        _ => 0.0,
    };

    let run_s = per_round(t.run_s);
    let pkts = c.tx_pkts.max(1) as f64;
    let flows = c.flows.max(1) as f64;
    let top = c.ack_load.iter().max_by_key(|(&(_, b), l)| (b, l.acks));
    let sender_ns = top
        .and_then(|(k, _)| d.sender.get(k).copied())
        .unwrap_or(0.0);

    // Ledger: count x isolated cost, over host time inside Simulation::run.
    let share = |ns: f64| ns * 1e-9 / run_s;
    let sim = share(c.events as f64 * d.wheel);
    let net = share(c.fifo_pkts as f64 * d.fifo);
    let fq = share(c.fq_pkts as f64 * d.fq);
    let core = share(c.ceb_pkts as f64 * d.ceb);
    let transport = share(
        c.ack_load
            .iter()
            .map(|(k, l)| l.acks as f64 * d.sender.get(k).copied().unwrap_or(0.0))
            .sum(),
    );
    let cc = share(
        c.ack_load
            .values()
            .map(|l| l.acks as f64 * d.cc_ns(l.cc).unwrap_or(0.0))
            .sum(),
    );
    eprintln!(
        "{}: {} traced rounds; ledger sim {sim:.3} net {net:.3} fq {fq:.3} core {core:.3} transport {transport:.3} (cc {cc:.3})",
        w.name(),
        rounds
    );

    let metrics = vec![
        metric("scenario.build_s", "s", per_round(t.build_s)),
        metric("engine.new_s", "s", per_round(t.new_s)),
        metric(
            "engine.new_us_per_flow",
            "us",
            per_round(t.new_s) * 1e6 / flows,
        ),
        metric("engine.run_s", "s", run_s),
        metric("engine.run_ns_per_pkt", "ns", run_s * 1e9 / pkts),
        metric("engine.events", "count", c.events as f64),
        metric("engine.events_per_pkt", "ratio", c.events as f64 / pkts),
        metric("sim.wheel.ns_per_event", "ns", d.wheel),
        metric("net.tx_pkts", "count", c.tx_pkts as f64),
        metric(
            "net.bneck_util",
            "ratio",
            c.bneck_bits / c.bneck_capacity_bits.max(1.0),
        ),
        metric("net.fifo.ns_per_pkt", "ns", d.fifo),
        metric("fq.fqcodel.ns_per_pkt", "ns", d.fq),
        metric("fq.drop_pkts", "count", c.fq_drops as f64),
        metric("core.cebinae.ns_per_pkt", "ns", d.ceb),
        metric("core.rotations", "count", c.rotations as f64),
        metric("core.lbf_drops", "count", c.lbf_drops as f64),
        metric("core.delayed_pkts", "count", c.delayed_pkts as f64),
        metric("transport.sender.ns_per_ack", "ns", sender_ns),
        metric("transport.acks", "count", c.acks as f64),
        metric("transport.retx_pkts", "count", c.retx_pkts as f64),
        metric("transport.rto_count", "count", c.rto_count as f64),
        metric(
            "transport.peak_flight_segs",
            "count",
            (c.peak_flight_bytes / u64::from(MSS)) as f64,
        ),
        metric("cc.newreno.ns_per_ack", "ns", d.cc[0].1),
        metric("cc.cubic.ns_per_ack", "ns", d.cc[1].1),
        metric("cc.vegas.ns_per_ack", "ns", d.cc[2].1),
        metric("cc.bbr.ns_per_ack", "ns", d.cc[3].1),
        metric("metrics.post_s", "s", per_round(t.post_s)),
        metric("telemetry.ndjson_bytes", "bytes", c.ndjson_bytes as f64),
        metric(
            "check.oracle.conservation_s",
            "s",
            per_round(t.conservation_s),
        ),
        metric("check.oracle.replay_s", "s", per_round(t.replay_s)),
        metric(
            "check.oracle.differential_s",
            "s",
            per_round(t.differential_s),
        ),
        metric("check.oracle.fairness_s", "s", per_round(t.fairness_s)),
        metric("check.oracle.faults_s", "s", per_round(t.faults_s)),
        metric("par.speedup_2w", "ratio", speedup),
        metric("ledger.sim.share", "ratio", sim),
        metric("ledger.net.share", "ratio", net),
        metric("ledger.fq.share", "ratio", fq),
        metric("ledger.core.share", "ratio", core),
        metric("ledger.transport.share", "ratio", transport),
        metric("ledger.cc.share", "ratio", cc),
        metric(
            "ledger.residual_share",
            "ratio",
            1.0 - (sim + net + fq + core + transport),
        ),
        metric("trace.overhead_s", "s", overhead_s),
    ];
    (tally, metrics)
}
