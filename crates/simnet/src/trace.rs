//! Structured event traces: the *time* dimension of the simulator.
//!
//! [`crate::stats::CommStats`] is the Score-P substitute for **volume** —
//! it can say how much each rank sent, but not *when*, *in what order*, or
//! what the critical path was. This module records every send, receive,
//! collective step, retransmission and compute region as a timestamped
//! [`Event`] so that latency effects — the paper's §7.3 claim that
//! tournament pivoting cuts the `O(N)` pivoting latency to `O(N/v)` — can
//! be *measured* instead of asserted.
//!
//! Two clock domains, one event model:
//!
//! * **Virtual** ([`ClockDomain::Virtual`]) — the orchestrated
//!   [`crate::network::Network`] advances deterministic per-rank clocks
//!   under the [`AlphaBeta`] model: a point-to-point transfer occupies the
//!   sender for `α + β·elems`, the receiver finishes no earlier than the
//!   send completes, and a collective is a barrier (it starts at the max of
//!   its participants' clocks). Same run, same trace, bit for bit.
//! * **Wall** ([`ClockDomain::Wall`]) — the threaded backend stamps real
//!   monotonic time, normalized to a shared epoch taken when the SPMD
//!   region spawns (so all rank timelines share t = 0).
//!
//! On top of the trace sit three consumers:
//!
//! * [`Trace::critical_path`] — a happens-before analysis that walks
//!   program-order, message and collective-barrier edges and reports the
//!   longest `α·msgs + β·elems` chain with a per-phase breakdown,
//! * [`Trace::timeline_ascii`] / [`Trace::phase_histogram`] /
//!   [`Trace::lower_bound_gauge`] — terminal summaries,
//! * [`Trace::to_chrome_trace`] — Chrome trace-event JSON that loads
//!   directly in Perfetto or `chrome://tracing`.
//!
//! Tracing is strictly opt-in: the disabled [`Tracer::noop`] is a single
//! `Option` check per call and performs no clock reads or allocation, so
//! instrumented hot paths cost nothing when tracing is off.

use std::collections::HashMap;
use std::fmt::Write as _;

use crate::cost::AlphaBeta;
use crate::stats::{CommStats, Rank, ELEMENT_BYTES};

/// Default modeled compute throughput used to give compute regions width on
/// a virtual timeline: seconds per flop (40 GFLOP/s per rank, the order of
/// the packed GEMM this repo measures in `perfsmoke`).
pub const DEFAULT_GAMMA: f64 = 2.5e-11;

/// What an [`Event`] describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A point-to-point transmission to `peer`.
    Send {
        /// Destination rank.
        peer: Rank,
    },
    /// Consumption of a message from `peer`.
    Recv {
        /// Source rank.
        peer: Rank,
    },
    /// One rank's share of a collective operation.
    CollectiveStep {
        /// Operation name (`"broadcast"`, `"butterfly"`, ...).
        op: &'static str,
    },
    /// A local compute region (no communication volume).
    Compute {
        /// Kernel label (`"gemm"`, `"trsm"`, ...).
        label: &'static str,
    },
    /// Fault-injection overhead: a retransmitted (dropped) attempt or the
    /// extra copy of a duplicated message, on either side of the wire.
    Retransmit {
        /// The other end of the faulted transfer.
        peer: Rank,
    },
}

impl EventKind {
    /// Short display name of the kind.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::Send { .. } => "send",
            EventKind::Recv { .. } => "recv",
            EventKind::CollectiveStep { .. } => "collective",
            EventKind::Compute { .. } => "compute",
            EventKind::Retransmit { .. } => "retransmit",
        }
    }
}

/// One timestamped interval on one rank's timeline.
#[derive(Clone, Debug, PartialEq)]
pub struct Event {
    /// The rank this event happened on.
    pub rank: Rank,
    /// Algorithm phase tag (same namespace as [`CommStats`] phases).
    pub phase: &'static str,
    /// What happened.
    pub kind: EventKind,
    /// Elements this rank sent in this event.
    pub sent: u64,
    /// Elements this rank received in this event.
    pub recv: u64,
    /// Point-to-point messages this rank sent in this event.
    pub msgs: u64,
    /// Start time (seconds; virtual or wall, see [`Trace::clock`]).
    pub t_start: f64,
    /// End time (seconds).
    pub t_end: f64,
    /// Matching id: a [`EventKind::Send`] and its [`EventKind::Recv`] share
    /// `(src, dst, seq)`; all steps of one collective share `seq`.
    pub seq: u64,
}

impl Event {
    /// Bytes moved by this event (sent + received, 8-byte elements).
    pub fn bytes(&self) -> u64 {
        (self.sent + self.recv) * ELEMENT_BYTES as u64
    }

    /// Event duration in seconds.
    pub fn duration(&self) -> f64 {
        self.t_end - self.t_start
    }

    /// Modeled α-β cost of this event: `α·msgs + β·(sent + recv)` for
    /// communication, the recorded duration for compute regions.
    pub fn cost(&self, model: &AlphaBeta) -> f64 {
        match self.kind {
            EventKind::Compute { .. } => self.duration(),
            _ => model.alpha * self.msgs as f64 + model.beta * (self.sent + self.recv) as f64,
        }
    }
}

/// Which clock stamped a trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClockDomain {
    /// Deterministic α-β virtual time (orchestrated backend).
    Virtual,
    /// Monotonic wall time since the region's shared epoch (threaded
    /// backend).
    Wall,
}

/// A complete recorded run: every event of every rank, plus the machine
/// model the virtual clock (and the critical-path analyzer) uses.
#[derive(Clone, Debug)]
pub struct Trace {
    /// Number of ranks.
    pub p: usize,
    /// The α-β parameters costs are computed under.
    pub model: AlphaBeta,
    /// Which clock stamped the events.
    pub clock: ClockDomain,
    /// All events. Within one rank, events appear in program order.
    pub events: Vec<Event>,
}

// ---------------------------------------------------------------------------
// Recording: the orchestrated (virtual-clock) tracer
// ---------------------------------------------------------------------------

/// Virtual-time trace recorder for the orchestrated [`crate::Network`].
///
/// The disabled form, [`Tracer::noop`], is a single `None` branch per
/// recording call — no clock reads, no allocation — so instrumenting a hot
/// path with a noop tracer is free (the perf-smoke suite asserts < 2%
/// overhead on the packed GEMM driver).
#[derive(Clone, Debug, Default)]
pub struct Tracer {
    inner: Option<Box<TracerInner>>,
}

#[derive(Clone, Debug)]
struct TracerInner {
    model: AlphaBeta,
    gamma: f64,
    clocks: Vec<f64>,
    events: Vec<Event>,
    next_seq: u64,
}

impl Tracer {
    /// A disabled tracer: records nothing, costs (almost) nothing.
    pub fn noop() -> Self {
        Tracer { inner: None }
    }

    /// An enabled tracer advancing `p` per-rank virtual clocks under
    /// `model` (compute regions use [`DEFAULT_GAMMA`] seconds per flop).
    pub fn virtual_time(p: usize, model: AlphaBeta) -> Self {
        Tracer {
            inner: Some(Box::new(TracerInner {
                model,
                gamma: DEFAULT_GAMMA,
                clocks: vec![0.0; p],
                events: Vec::new(),
                next_seq: 0,
            })),
        }
    }

    /// Is this tracer recording?
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Record a point-to-point transfer, mirroring exactly what
    /// [`crate::Network::send`] charges to [`CommStats`]: the payload, plus
    /// `drops` retransmitted attempts and (if `duplicated`) the extra copy
    /// on both sides.
    ///
    /// Virtual-clock rules: the sender is busy `α + β·elems` per
    /// transmission; the receiver finishes at
    /// `max(clock[dst] + β·elems, send.t_end)` — a receive never completes
    /// before its matching send, and per-rank events never overlap.
    pub fn p2p(
        &mut self,
        src: Rank,
        dst: Rank,
        elems: u64,
        phase: &'static str,
        drops: u64,
        duplicated: bool,
    ) {
        let Some(inner) = self.inner.as_deref_mut() else {
            return;
        };
        if src == dst || elems == 0 {
            return; // mirror CommStats::record: local copies are free
        }
        let wire = inner.model.alpha + inner.model.beta * elems as f64;
        let recv_cost = inner.model.beta * elems as f64;
        let seq = inner.next_seq;
        inner.next_seq += 1;
        if drops > 0 {
            let t0 = inner.clocks[src];
            let t1 = t0 + drops as f64 * wire;
            inner.events.push(Event {
                rank: src,
                phase,
                kind: EventKind::Retransmit { peer: dst },
                sent: drops * elems,
                recv: 0,
                msgs: drops,
                t_start: t0,
                t_end: t1,
                seq,
            });
            inner.clocks[src] = t1;
        }
        let s0 = inner.clocks[src];
        let s1 = s0 + wire;
        inner.events.push(Event {
            rank: src,
            phase,
            kind: EventKind::Send { peer: dst },
            sent: elems,
            recv: 0,
            msgs: 1,
            t_start: s0,
            t_end: s1,
            seq,
        });
        inner.clocks[src] = s1;
        let r0 = inner.clocks[dst];
        let r1 = (r0 + recv_cost).max(s1);
        inner.events.push(Event {
            rank: dst,
            phase,
            kind: EventKind::Recv { peer: src },
            sent: 0,
            recv: elems,
            msgs: 0,
            t_start: r0,
            t_end: r1,
            seq,
        });
        inner.clocks[dst] = r1;
        if duplicated {
            let d0 = inner.clocks[src];
            let d1 = d0 + wire;
            inner.events.push(Event {
                rank: src,
                phase,
                kind: EventKind::Retransmit { peer: dst },
                sent: elems,
                recv: 0,
                msgs: 1,
                t_start: d0,
                t_end: d1,
                seq,
            });
            inner.clocks[src] = d1;
            let e0 = inner.clocks[dst];
            let e1 = (e0 + recv_cost).max(d1);
            inner.events.push(Event {
                rank: dst,
                phase,
                kind: EventKind::Retransmit { peer: src },
                sent: 0,
                recv: elems,
                msgs: 0,
                t_start: e0,
                t_end: e1,
                seq,
            });
            inner.clocks[dst] = e1;
        }
    }

    /// Record one collective operation, mirroring the per-participant
    /// volumes the [`crate::Network`] charges. A collective is a barrier:
    /// every participating step starts at the *maximum* clock of the
    /// charged participants, then each advances by its own
    /// `α·msgs + β·(sent + recv)`. Participants charged nothing (e.g. a
    /// singleton group) get no event, exactly as [`CommStats::charge`]
    /// skips them.
    pub fn collective(
        &mut self,
        op: &'static str,
        phase: &'static str,
        participants: &[(Rank, u64, u64, u64)],
    ) {
        let Some(inner) = self.inner.as_deref_mut() else {
            return;
        };
        let active: Vec<&(Rank, u64, u64, u64)> = participants
            .iter()
            .filter(|(_, sent, recv, msgs)| *sent > 0 || *recv > 0 || *msgs > 0)
            .collect();
        if active.is_empty() {
            return;
        }
        let entry = active
            .iter()
            .map(|(r, _, _, _)| inner.clocks[*r])
            .fold(0.0, f64::max);
        let seq = inner.next_seq;
        inner.next_seq += 1;
        for &&(rank, sent, recv, msgs) in &active {
            let dur = inner.model.alpha * msgs as f64 + inner.model.beta * (sent + recv) as f64;
            inner.events.push(Event {
                rank,
                phase,
                kind: EventKind::CollectiveStep { op },
                sent,
                recv,
                msgs,
                t_start: entry,
                t_end: entry + dur,
                seq,
            });
            inner.clocks[rank] = entry + dur;
        }
    }

    /// Record a local compute region of `flops` floating-point operations
    /// on `rank`; its virtual duration is `gamma · flops`.
    pub fn compute(&mut self, rank: Rank, flops: f64, phase: &'static str, label: &'static str) {
        let Some(inner) = self.inner.as_deref_mut() else {
            return;
        };
        if flops <= 0.0 {
            return;
        }
        let t0 = inner.clocks[rank];
        let t1 = t0 + inner.gamma * flops;
        let seq = inner.next_seq;
        inner.next_seq += 1;
        inner.events.push(Event {
            rank,
            phase,
            kind: EventKind::Compute { label },
            sent: 0,
            recv: 0,
            msgs: 0,
            t_start: t0,
            t_end: t1,
            seq,
        });
        inner.clocks[rank] = t1;
    }

    /// Extract the finished [`Trace`], leaving the tracer disabled.
    /// Returns `None` for a noop tracer.
    pub fn take(&mut self) -> Option<Trace> {
        self.inner.take().map(|inner| Trace {
            p: inner.clocks.len(),
            model: inner.model,
            clock: ClockDomain::Virtual,
            events: inner.events,
        })
    }
}

// ---------------------------------------------------------------------------
// Recording: the threaded (wall-clock) per-rank tracer
// ---------------------------------------------------------------------------

/// Wall-clock trace recorder owned by one rank thread of the threaded
/// backend. Timestamps are seconds since the SPMD region's shared epoch
/// (taken before any rank thread spawns), so all rank timelines are
/// normalized to the same t = 0.
#[derive(Debug, Default)]
pub struct RankTracer {
    inner: Option<Box<RankTracerInner>>,
}

#[derive(Debug)]
struct RankTracerInner {
    rank: Rank,
    epoch: std::time::Instant,
    events: Vec<Event>,
}

impl RankTracer {
    /// A disabled per-rank tracer (no clock reads, no allocation).
    pub fn noop() -> Self {
        RankTracer { inner: None }
    }

    /// An enabled per-rank tracer stamping seconds since `epoch`.
    pub fn wall(rank: Rank, epoch: std::time::Instant) -> Self {
        RankTracer {
            inner: Some(Box::new(RankTracerInner {
                rank,
                epoch,
                events: Vec::new(),
            })),
        }
    }

    /// Is this tracer recording?
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Current time (seconds since epoch), or `0.0` when disabled — call
    /// before the operation, pass the value to the matching `push_*`.
    pub fn begin(&self) -> f64 {
        match self.inner.as_deref() {
            Some(inner) => inner.epoch.elapsed().as_secs_f64(),
            None => 0.0,
        }
    }

    fn push(
        &mut self,
        kind: EventKind,
        phase: &'static str,
        volumes: (u64, u64, u64),
        t0: f64,
        seq: u64,
    ) {
        let Some(inner) = self.inner.as_deref_mut() else {
            return;
        };
        let t1 = inner.epoch.elapsed().as_secs_f64();
        let (sent, recv, msgs) = volumes;
        inner.events.push(Event {
            rank: inner.rank,
            phase,
            kind,
            sent,
            recv,
            msgs,
            t_start: t0,
            t_end: t1.max(t0),
            seq,
        });
    }

    /// Record a completed transmission to `peer` (the copy that counts as
    /// the real message).
    pub fn push_send(&mut self, peer: Rank, seq: u64, elems: u64, phase: &'static str, t0: f64) {
        self.push(EventKind::Send { peer }, phase, (elems, 0, 1), t0, seq);
    }

    /// Record a consumed message from `peer`. `duplicate` marks a transfer
    /// whose extra copy also crossed the wire (charged as a retransmission
    /// marker, mirroring the receiver-side accounting).
    pub fn push_recv(
        &mut self,
        peer: Rank,
        seq: u64,
        elems: u64,
        phase: &'static str,
        t0: f64,
        duplicate: bool,
    ) {
        self.push(EventKind::Recv { peer }, phase, (0, elems, 0), t0, seq);
        if duplicate {
            let t = self.begin();
            self.push(EventKind::Retransmit { peer }, phase, (0, elems, 0), t, seq);
        }
    }

    /// Record fault-injection wire overhead on the send side: a dropped
    /// attempt (`msgs = 1`) or the extra copy of a duplicated message.
    pub fn push_retransmit(
        &mut self,
        peer: Rank,
        seq: u64,
        elems: u64,
        phase: &'static str,
        t0: f64,
    ) {
        self.push(
            EventKind::Retransmit { peer },
            phase,
            (elems, 0, 1),
            t0,
            seq,
        );
    }

    /// Record a compute region that ran from `t0` to now.
    pub fn push_compute(&mut self, phase: &'static str, label: &'static str, t0: f64) {
        self.push(EventKind::Compute { label }, phase, (0, 0, 0), t0, 0);
    }

    /// Extract this rank's events (in program order).
    pub fn into_events(self) -> Vec<Event> {
        self.inner.map(|i| i.events).unwrap_or_default()
    }
}

// ---------------------------------------------------------------------------
// Analysis: critical path over the happens-before DAG
// ---------------------------------------------------------------------------

/// Cost attributed to one phase along the critical path.
#[derive(Clone, Debug, PartialEq)]
pub struct PhaseCost {
    /// Phase tag.
    pub phase: &'static str,
    /// Latency part: `α · messages` of the chain events in this phase.
    pub alpha: f64,
    /// Bandwidth part: `β · elements`.
    pub beta: f64,
    /// Compute part (event durations of compute regions).
    pub compute: f64,
    /// How many chain events belong to this phase.
    pub events: usize,
}

impl PhaseCost {
    /// Total critical-path cost of this phase.
    pub fn total(&self) -> f64 {
        self.alpha + self.beta + self.compute
    }
}

/// The longest happens-before chain of a [`Trace`], costed under α-β.
#[derive(Clone, Debug)]
pub struct CriticalPath {
    /// Latency (`α · msgs`) along the chain.
    pub alpha_time: f64,
    /// Bandwidth (`β · elems`) along the chain.
    pub beta_time: f64,
    /// Compute time along the chain.
    pub compute_time: f64,
    /// Per-phase breakdown, sorted by descending total cost.
    pub per_phase: Vec<PhaseCost>,
    /// Number of events on the chain.
    pub chain_len: usize,
    /// Latest event end time in the trace (the timeline's makespan).
    pub makespan: f64,
}

impl CriticalPath {
    /// Total modeled time of the chain:
    /// `α·msgs + β·elems + compute` summed along the longest path.
    pub fn total_time(&self) -> f64 {
        self.alpha_time + self.beta_time + self.compute_time
    }

    /// The chain cost attributed to `phase`, if any chain event has it.
    pub fn phase_cost(&self, phase: &str) -> Option<&PhaseCost> {
        self.per_phase.iter().find(|c| c.phase == phase)
    }

    /// Render an aligned text report of the chain breakdown.
    pub fn report(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "critical path: {:.6} s over {} events  (α {:.6} s + β {:.6} s + compute {:.6} s)",
            self.total_time(),
            self.chain_len,
            self.alpha_time,
            self.beta_time,
            self.compute_time,
        );
        let _ = writeln!(
            out,
            "{:<28} {:>12} {:>12} {:>12} {:>7}",
            "phase", "alpha_s", "beta_s", "compute_s", "events"
        );
        for c in &self.per_phase {
            let _ = writeln!(
                out,
                "{:<28} {:>12.6} {:>12.6} {:>12.6} {:>7}",
                c.phase, c.alpha, c.beta, c.compute, c.events
            );
        }
        out
    }
}

/// The happens-before dependency DAG of a [`Trace`], over event indices
/// plus one synthetic barrier node per collective instance (see
/// [`Trace::happens_before`]).
#[derive(Clone, Debug)]
pub struct HbGraph {
    /// Number of real events (nodes `0..events` index [`Trace::events`]).
    pub events: usize,
    /// Total node count including synthetic collective-barrier nodes.
    pub nodes: usize,
    /// Directed edges `a → b`: `a` happens before `b`.
    pub edges: Vec<(usize, usize)>,
}

impl HbGraph {
    /// Number of nodes a Kahn topological drain cannot reach — `0` iff the
    /// graph is acyclic. A nonzero value means the recorded event ordering
    /// contains a causal loop, which no real execution can produce: it is
    /// the invariant the `verifier` crate checks on every traced run.
    pub fn undrained_nodes(&self) -> usize {
        let mut indeg = vec![0u32; self.nodes];
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); self.nodes];
        for &(a, b) in &self.edges {
            adj[a].push(b);
            indeg[b] += 1;
        }
        let mut queue: std::collections::VecDeque<usize> =
            (0..self.nodes).filter(|&i| indeg[i] == 0).collect();
        let mut drained = 0usize;
        while let Some(u) = queue.pop_front() {
            drained += 1;
            for &v in &adj[u] {
                indeg[v] -= 1;
                if indeg[v] == 0 {
                    queue.push_back(v);
                }
            }
        }
        self.nodes - drained
    }
}

impl Trace {
    /// Latest event end (0.0 for an empty trace).
    pub fn makespan(&self) -> f64 {
        self.events.iter().map(|e| e.t_end).fold(0.0, f64::max)
    }

    /// Events of one rank, in program order.
    pub fn events_of_rank(&self, rank: Rank) -> impl Iterator<Item = &Event> {
        self.events.iter().filter(move |e| e.rank == rank)
    }

    /// Rebuild a [`CommStats`] record purely from the trace. On any traced
    /// run this must equal the run's own statistics *exactly* — the
    /// reconciliation invariant the trace tests enforce.
    pub fn rebuild_stats(&self) -> CommStats {
        let mut stats = CommStats::new(self.p);
        for e in &self.events {
            stats.charge(e.rank, e.sent, e.recv, e.msgs, e.phase);
        }
        stats
    }

    /// The critical path under the trace's own machine model.
    pub fn critical_path(&self) -> CriticalPath {
        self.critical_path_with(&self.model)
    }

    /// Build the happens-before dependency graph of this trace — the exact
    /// DAG [`Trace::critical_path_with`] walks, exposed so external
    /// verifiers can check structural invariants (acyclicity, message
    /// ordering) independently of the cost model.
    ///
    /// Nodes `0..events` are indices into [`Trace::events`]; nodes
    /// `events..nodes` are synthetic zero-cost barrier nodes, one per
    /// collective instance. Edges follow the three families documented on
    /// [`Trace::critical_path_with`].
    pub fn happens_before(&self) -> HbGraph {
        let n = self.events.len();
        // collective instances, keyed by their shared seq
        let mut instances: HashMap<u64, Vec<usize>> = HashMap::new();
        for (i, e) in self.events.iter().enumerate() {
            if matches!(e.kind, EventKind::CollectiveStep { .. }) {
                instances.entry(e.seq).or_default().push(i);
            }
        }
        let mut barrier_of: Vec<(u64, usize)> =
            instances.iter().map(|(&seq, _)| (seq, 0usize)).collect();
        barrier_of.sort_unstable();
        for (k, b) in barrier_of.iter_mut().enumerate() {
            b.1 = n + k;
        }
        let barrier_id: HashMap<u64, usize> = barrier_of.iter().copied().collect();
        let nodes = n + barrier_id.len();
        let mut edges: Vec<(usize, usize)> = Vec::new();

        // 1. program order + predecessor map (needed by barrier edges)
        let mut prev_of_rank: HashMap<Rank, usize> = HashMap::new();
        let mut pred: Vec<Option<usize>> = vec![None; n];
        for (i, e) in self.events.iter().enumerate() {
            if let Some(&p) = prev_of_rank.get(&e.rank) {
                edges.push((p, i));
                pred[i] = Some(p);
            }
            prev_of_rank.insert(e.rank, i);
        }
        // 2. message edges: send (and its fault overhead) -> recv
        let mut sends: HashMap<(Rank, Rank, u64), usize> = HashMap::new();
        for (i, e) in self.events.iter().enumerate() {
            if let EventKind::Send { peer } = e.kind {
                sends.insert((e.rank, peer, e.seq), i);
            }
        }
        for (i, e) in self.events.iter().enumerate() {
            if let EventKind::Recv { peer } = e.kind {
                if let Some(&s) = sends.get(&(peer, e.rank, e.seq)) {
                    edges.push((s, i));
                }
            }
        }
        // 3. collective barriers: pred(step) -> barrier -> every step
        for (seq, steps) in &instances {
            let b = barrier_id[seq];
            for &i in steps {
                if let Some(p) = pred[i] {
                    edges.push((p, b));
                }
                edges.push((b, i));
            }
        }
        HbGraph {
            events: n,
            nodes,
            edges,
        }
    }

    /// The critical path under an explicit α-β model.
    ///
    /// The happens-before DAG has three edge families:
    ///
    /// 1. **program order** — consecutive events of the same rank,
    /// 2. **messages** — each send precedes its matching receive (and the
    ///    retransmission overhead of a faulted transfer precedes both),
    /// 3. **collective barriers** — every step of one collective instance
    ///    happens after every participant's preceding event (modeled with
    ///    one synthetic zero-cost barrier node per instance).
    ///
    /// Each event contributes `α·msgs + β·(sent+recv)` (compute regions
    /// contribute their duration); the result is the costliest chain, which
    /// is what bounds the runtime of the run under unlimited overlap of
    /// independent work.
    pub fn critical_path_with(&self, model: &AlphaBeta) -> CriticalPath {
        let graph = self.happens_before();
        let n = graph.events;
        let total = graph.nodes;
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); total];
        let mut indeg: Vec<u32> = vec![0; total];
        for &(a, b) in &graph.edges {
            adj[a].push(b);
            indeg[b] += 1;
        }

        // weights (barrier nodes are free)
        let weight = |i: usize| -> f64 {
            if i < n {
                self.events[i].cost(model)
            } else {
                0.0
            }
        };

        // longest path by Kahn topological order
        let mut dist: Vec<f64> = (0..total).map(&weight).collect();
        let mut best_pred: Vec<Option<usize>> = vec![None; total];
        let mut queue: std::collections::VecDeque<usize> =
            (0..total).filter(|&i| indeg[i] == 0).collect();
        let mut seen = 0usize;
        while let Some(u) = queue.pop_front() {
            seen += 1;
            for &v in &adj[u] {
                if dist[u] + weight(v) > dist[v] {
                    dist[v] = dist[u] + weight(v);
                    best_pred[v] = Some(u);
                }
                indeg[v] -= 1;
                if indeg[v] == 0 {
                    queue.push_back(v);
                }
            }
        }
        debug_assert_eq!(seen, total, "trace happens-before graph has a cycle");

        // recover the argmax chain and split its cost
        let end = (0..total).fold(None::<usize>, |best, i| match best {
            Some(b) if dist[b] >= dist[i] => Some(b),
            _ => Some(i),
        });
        let mut alpha_time = 0.0;
        let mut beta_time = 0.0;
        let mut compute_time = 0.0;
        let mut chain_len = 0usize;
        let mut by_phase: HashMap<&'static str, PhaseCost> = HashMap::new();
        let mut cur = end;
        while let Some(i) = cur {
            if i < n {
                let e = &self.events[i];
                chain_len += 1;
                let entry = by_phase.entry(e.phase).or_insert(PhaseCost {
                    phase: e.phase,
                    alpha: 0.0,
                    beta: 0.0,
                    compute: 0.0,
                    events: 0,
                });
                entry.events += 1;
                match e.kind {
                    EventKind::Compute { .. } => {
                        entry.compute += e.duration();
                        compute_time += e.duration();
                    }
                    _ => {
                        let a = model.alpha * e.msgs as f64;
                        let b = model.beta * (e.sent + e.recv) as f64;
                        entry.alpha += a;
                        entry.beta += b;
                        alpha_time += a;
                        beta_time += b;
                    }
                }
            }
            cur = best_pred[i];
        }
        let mut per_phase: Vec<PhaseCost> = by_phase.into_values().collect();
        per_phase.sort_by(|x, y| {
            y.total()
                .partial_cmp(&x.total())
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(x.phase.cmp(y.phase))
        });
        CriticalPath {
            alpha_time,
            beta_time,
            compute_time,
            per_phase,
            chain_len,
            makespan: self.makespan(),
        }
    }

    // -----------------------------------------------------------------------
    // Summaries
    // -----------------------------------------------------------------------

    /// ASCII per-rank timeline: one row per rank (capped at `max_ranks`),
    /// `width` columns spanning `[0, makespan]`. Cell characters:
    /// `S` send, `r` recv, `C` collective, `*` compute, `!` retransmit,
    /// `.` idle.
    pub fn timeline_ascii(&self, width: usize, max_ranks: usize) -> String {
        let width = width.max(8);
        let span = self.makespan();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "timeline ({} clock, makespan {:.6} s, {} events; S=send r=recv C=collective *=compute !=retransmit)",
            match self.clock {
                ClockDomain::Virtual => "virtual",
                ClockDomain::Wall => "wall",
            },
            span,
            self.events.len()
        );
        if span <= 0.0 {
            out.push_str("(empty trace)\n");
            return out;
        }
        // per-rank event lists, in recorded (program) order
        let mut per_rank: Vec<Vec<&Event>> = vec![Vec::new(); self.p];
        for e in &self.events {
            if e.rank < self.p {
                per_rank[e.rank].push(e);
            }
        }
        let shown = self.p.min(max_ranks.max(1));
        for (rank, events) in per_rank.iter().enumerate().take(shown) {
            let mut row = String::with_capacity(width);
            let mut busy = 0.0;
            for e in events {
                busy += e.duration();
            }
            for cell in 0..width {
                let t = span * (cell as f64 + 0.5) / width as f64;
                // events are time-sorted per rank: binary search by start
                let idx = events.partition_point(|e| e.t_start <= t);
                let ch = events[..idx]
                    .iter()
                    .rev()
                    .take(8) // events are non-overlapping; a small lookback suffices
                    .find(|e| e.t_end > t)
                    .map(|e| match e.kind {
                        EventKind::Send { .. } => 'S',
                        EventKind::Recv { .. } => 'r',
                        EventKind::CollectiveStep { .. } => 'C',
                        EventKind::Compute { .. } => '*',
                        EventKind::Retransmit { .. } => '!',
                    })
                    .unwrap_or('.');
                row.push(ch);
            }
            let _ = writeln!(
                out,
                "rank {rank:>3} |{row}| {:5.1}% busy",
                100.0 * busy / span
            );
        }
        if shown < self.p {
            let _ = writeln!(out, "... ({} more ranks)", self.p - shown);
        }
        out
    }

    /// Aligned per-phase histogram: events, messages, elements and busy
    /// seconds per phase, with a bar scaled to the largest element count.
    pub fn phase_histogram(&self) -> String {
        #[derive(Default)]
        struct Agg {
            events: usize,
            msgs: u64,
            elems: u64,
            busy: f64,
        }
        let mut phases: std::collections::BTreeMap<&'static str, Agg> =
            std::collections::BTreeMap::new();
        for e in &self.events {
            let a = phases.entry(e.phase).or_default();
            a.events += 1;
            a.msgs += e.msgs;
            a.elems += e.sent;
            a.busy += e.duration();
        }
        let max_elems = phases.values().map(|a| a.elems).max().unwrap_or(0).max(1);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<28} {:>8} {:>10} {:>13} {:>11}  volume",
            "phase", "events", "messages", "elems_sent", "busy_s"
        );
        for (phase, a) in &phases {
            let bar_len = ((a.elems as f64 / max_elems as f64) * 24.0).round() as usize;
            let _ = writeln!(
                out,
                "{:<28} {:>8} {:>10} {:>13} {:>11.6}  {}",
                phase,
                a.events,
                a.msgs,
                a.elems,
                a.busy,
                "#".repeat(bar_len)
            );
        }
        out
    }

    /// Gauge of the measured per-rank communication volume against a
    /// theoretical lower bound (the paper's `2N³/(3P√M)`, in elements).
    /// Ratios near 1.0 mean the run is I/O-optimal.
    pub fn lower_bound_gauge(&self, bound_elems_per_rank: f64) -> String {
        let stats = self.rebuild_stats();
        let max_sent = stats.max_sent_per_rank() as f64;
        let ratio = if bound_elems_per_rank > 0.0 {
            max_sent / bound_elems_per_rank
        } else {
            f64::INFINITY
        };
        let filled = (ratio.min(4.0) / 4.0 * 32.0).round() as usize;
        format!(
            "lower-bound gauge: max per-rank sent {:.0} elems / bound {:.0} elems = {:.2}x\n[{}{}] (1.0x = I/O-optimal, scale 0..4x)\n",
            max_sent,
            bound_elems_per_rank,
            ratio,
            "#".repeat(filled),
            "-".repeat(32usize.saturating_sub(filled)),
        )
    }

    // -----------------------------------------------------------------------
    // Export
    // -----------------------------------------------------------------------

    /// Render the trace as Chrome trace-event JSON (the array-of-events
    /// object form). The output loads directly in Perfetto
    /// (<https://ui.perfetto.dev>) or `chrome://tracing`: one process,
    /// one thread per rank, `ph:"X"` duration events with microsecond
    /// timestamps, and volumes in each event's `args`.
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        let mut first = true;
        let mut push = |out: &mut String, line: String| {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&line);
        };
        for rank in 0..self.p {
            push(
                &mut out,
                format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{rank},\"args\":{{\"name\":\"rank {rank}\"}}}}"
                ),
            );
        }
        for e in &self.events {
            let (name, cat) = match e.kind {
                EventKind::Send { peer } => (format!("{} send->{}", e.phase, peer), "comm"),
                EventKind::Recv { peer } => (format!("{} recv<-{}", e.phase, peer), "comm"),
                EventKind::CollectiveStep { op } => (format!("{} {}", e.phase, op), "comm"),
                EventKind::Compute { label } => (format!("{} {}", e.phase, label), "compute"),
                EventKind::Retransmit { peer } => {
                    (format!("{} retransmit~{}", e.phase, peer), "fault")
                }
            };
            push(
                &mut out,
                format!(
                    "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.4},\"dur\":{:.4},\"pid\":0,\"tid\":{},\"args\":{{\"elems_sent\":{},\"elems_recv\":{},\"msgs\":{},\"seq\":{}}}}}",
                    json_escape(&name),
                    cat,
                    e.t_start * 1e6,
                    (e.t_end - e.t_start).max(0.0) * 1e6,
                    e.rank,
                    e.sent,
                    e.recv,
                    e.msgs,
                    e.seq,
                ),
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Minimal JSON string escaping (phase tags are static identifiers, but the
/// exporter must stay valid for any input).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> AlphaBeta {
        AlphaBeta {
            alpha: 1.0,
            beta: 0.01,
        }
    }

    #[test]
    fn noop_tracer_records_nothing() {
        let mut t = Tracer::noop();
        assert!(!t.enabled());
        t.p2p(0, 1, 100, "x", 0, false);
        t.compute(0, 1e9, "x", "gemm");
        assert!(t.take().is_none());
    }

    #[test]
    fn p2p_recv_never_ends_before_send() {
        let mut t = Tracer::virtual_time(2, model());
        t.p2p(0, 1, 100, "a", 0, false);
        t.p2p(1, 0, 50, "a", 0, false);
        let trace = t.take().unwrap();
        assert_eq!(trace.events.len(), 4);
        for e in &trace.events {
            if let EventKind::Recv { peer } = e.kind {
                let send = trace
                    .events
                    .iter()
                    .find(|s| {
                        matches!(s.kind, EventKind::Send { peer: p } if p == e.rank)
                            && s.rank == peer
                            && s.seq == e.seq
                    })
                    .unwrap();
                assert!(e.t_end >= send.t_end, "recv ended before its send");
            }
        }
    }

    #[test]
    fn per_rank_events_do_not_overlap() {
        let mut t = Tracer::virtual_time(3, model());
        t.p2p(0, 1, 10, "a", 0, false);
        t.p2p(1, 2, 20, "b", 0, false);
        t.collective(
            "broadcast",
            "c",
            &[(0, 30, 0, 1), (1, 0, 15, 0), (2, 0, 15, 0)],
        );
        t.compute(2, 1e9, "d", "gemm");
        let trace = t.take().unwrap();
        for r in 0..3 {
            let evs: Vec<&Event> = trace.events_of_rank(r).collect();
            for w in evs.windows(2) {
                assert!(
                    w[1].t_start >= w[0].t_end - 1e-12,
                    "rank {r} events overlap: {:?} then {:?}",
                    w[0],
                    w[1]
                );
            }
        }
    }

    #[test]
    fn self_and_empty_sends_ignored() {
        let mut t = Tracer::virtual_time(2, model());
        t.p2p(0, 0, 100, "x", 0, false);
        t.p2p(0, 1, 0, "x", 0, false);
        let trace = t.take().unwrap();
        assert!(trace.events.is_empty());
    }

    #[test]
    fn collective_is_a_barrier() {
        let mut t = Tracer::virtual_time(2, model());
        t.p2p(0, 1, 100, "warm", 0, false); // rank 0 busy until ~2.0
        t.collective("allreduce", "ar", &[(0, 10, 10, 1), (1, 10, 10, 1)]);
        let trace = t.take().unwrap();
        let steps: Vec<&Event> = trace
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::CollectiveStep { .. }))
            .collect();
        assert_eq!(steps.len(), 2);
        // both start at the same entry time = the busiest participant
        assert_eq!(steps[0].t_start, steps[1].t_start);
        let send_end = trace.events[0].t_end;
        let recv_end = trace.events[1].t_end;
        assert!(steps[0].t_start >= send_end.max(recv_end));
    }

    #[test]
    fn critical_path_at_least_busiest_rank() {
        let mut t = Tracer::virtual_time(4, model());
        t.p2p(0, 1, 100, "a", 0, false);
        t.p2p(1, 2, 100, "a", 0, false);
        t.p2p(2, 3, 100, "b", 0, false);
        t.p2p(3, 0, 100, "b", 0, false);
        let trace = t.take().unwrap();
        let stats = trace.rebuild_stats();
        let cp = trace.critical_path();
        let max_rank = trace.model.max_rank_time(&stats);
        assert!(
            cp.total_time() >= max_rank - 1e-12,
            "critical path {} < busiest rank {}",
            cp.total_time(),
            max_rank
        );
        // and the dependency chain 0->1->2->3->0 is strictly longer than
        // any single rank's local sum
        assert!(cp.total_time() > max_rank + 1e-12);
    }

    #[test]
    fn critical_path_chain_through_messages() {
        // a serial relay: the chain must include every send+recv pair
        let mut t = Tracer::virtual_time(3, model());
        t.p2p(0, 1, 100, "relay", 0, false);
        t.p2p(1, 2, 100, "relay", 0, false);
        let trace = t.take().unwrap();
        let cp = trace.critical_path();
        // chain: send0 -> recv1 -> send1 -> recv2 (4 events)
        assert_eq!(cp.chain_len, 4);
        let expect = 2.0 * (1.0 + 0.01 * 100.0) + 2.0 * (0.01 * 100.0);
        assert!(
            (cp.total_time() - expect).abs() < 1e-9,
            "{}",
            cp.total_time()
        );
    }

    #[test]
    fn retransmissions_appear_and_reconcile() {
        let mut t = Tracer::virtual_time(2, model());
        t.p2p(0, 1, 10, "f", 2, true);
        let trace = t.take().unwrap();
        let retrans: Vec<&Event> = trace
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Retransmit { .. }))
            .collect();
        // dropped attempts (1 event), duplicate copy on src + on dst
        assert_eq!(retrans.len(), 3);
        let stats = trace.rebuild_stats();
        // sent: 2 drops + original + dup copy = 4 x 10
        assert_eq!(stats.sent_by(0), 40);
        assert_eq!(stats.received_by(1), 20);
        assert_eq!(stats.messages_by(0), 4);
    }

    #[test]
    fn chrome_trace_is_wellformed() {
        let mut t = Tracer::virtual_time(2, model());
        t.p2p(0, 1, 10, "x", 0, false);
        let trace = t.take().unwrap();
        let json = trace.to_chrome_trace();
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"thread_name\""));
        // balanced braces / brackets (no string content interferes here)
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn timeline_and_histogram_render() {
        let mut t = Tracer::virtual_time(2, model());
        t.p2p(0, 1, 100, "phase-a", 0, false);
        t.compute(1, 1e10, "phase-b", "gemm");
        let trace = t.take().unwrap();
        let tl = trace.timeline_ascii(40, 8);
        assert!(tl.contains("rank   0"));
        assert!(tl.contains("rank   1"));
        let hist = trace.phase_histogram();
        assert!(hist.contains("phase-a"));
        assert!(hist.contains("phase-b"));
        let gauge = trace.lower_bound_gauge(50.0);
        assert!(gauge.contains("2.00x"));
    }

    #[test]
    fn wall_tracer_matches_sends_to_recvs() {
        let epoch = std::time::Instant::now();
        let mut a = RankTracer::wall(0, epoch);
        let mut b = RankTracer::wall(1, epoch);
        let t0 = a.begin();
        a.push_send(1, 7, 5, "w", t0);
        let t1 = b.begin();
        b.push_recv(0, 7, 5, "w", t1, false);
        let mut events = a.into_events();
        events.extend(b.into_events());
        let trace = Trace {
            p: 2,
            model: AlphaBeta::aries_like(),
            clock: ClockDomain::Wall,
            events,
        };
        let cp = trace.critical_path();
        assert_eq!(cp.chain_len, 2); // send -> recv is one chain
        let stats = trace.rebuild_stats();
        assert_eq!(stats.sent_by(0), 5);
        assert_eq!(stats.received_by(1), 5);
    }

    #[test]
    fn disabled_rank_tracer_is_free() {
        let mut t = RankTracer::noop();
        assert_eq!(t.begin(), 0.0);
        t.push_send(1, 0, 10, "x", 0.0);
        assert!(t.into_events().is_empty());
    }
}
