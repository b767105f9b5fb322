//! Threaded SPMD backend: every simulated rank is a real OS thread and every
//! transfer is a real message over an `std::sync::mpsc` channel.
//!
//! The orchestrated [`crate::network::Network`] only *counts*; this backend
//! *executes*, so tests can check that (a) the distributed algorithms are
//! correct under genuine concurrency and (b) both backends count the same
//! volumes. It is intended for small `P` (each rank is a thread).
//!
//! Payloads are `Vec<f64>`; index data is encoded as `f64` (exact for values
//! below 2^53), the same trick MPI codes use to fuse pivot metadata into
//! numeric buffers.
//!
//! # Fault injection and supervision
//!
//! [`run_spmd_supervised`] runs the region under a [`Supervisor`]: a seeded
//! [`FaultPlan`] drops, delays, duplicates and reorders messages and crashes
//! ranks at fail-points, while every blocking receive is bounded by a
//! timeout and a region deadline so a lost peer can never hang the caller.
//! Dropped transmissions are retransmitted with capped exponential backoff
//! (see [`RetryPolicy`]) and still *charged* — the accountant sees the
//! retransmission traffic. Receivers deduplicate by `(src, seq)`, so
//! duplicated deliveries are idempotent. Every send is numbered by the
//! sender in program order, which makes the whole fault schedule a pure
//! function of the plan's seed: same seed, same faults, regardless of how
//! the OS interleaves the rank threads.

use std::collections::{HashSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::cost::AlphaBeta;
use crate::error::{SimnetError, SimnetResult};
use crate::faults::{FaultEvent, FaultPlan, RetryPolicy};
use crate::stats::{CommStats, Rank};
use crate::trace::{ClockDomain, Event, RankTracer, Trace};

/// Poll granularity used only while a reorder-stashed message is parked in
/// the pending queue (so its deferral decays even if no other traffic
/// arrives).
const DEFER_POLL: Duration = Duration::from_micros(200);

/// A tagged message between ranks.
#[derive(Debug)]
struct Msg {
    src: Rank,
    tag: u64,
    /// Sender-assigned sequence number, unique per (src, dst) pair.
    seq: u64,
    data: Vec<f64>,
    phase: &'static str,
}

/// A message parked at the receiver. `defer > 0` means the fault plan
/// reordered it: the next `defer` matching scans skip it.
#[derive(Debug)]
struct Parked {
    msg: Msg,
    defer: u32,
}

/// Supervision policy for an SPMD region: which faults to inject, how to
/// retry dropped messages, and how long to wait before declaring a rank
/// lost.
#[derive(Clone, Debug)]
pub struct Supervisor {
    /// The fault schedule (default: [`FaultPlan::none`]).
    pub faults: FaultPlan,
    /// Retransmission policy for dropped messages.
    pub retry: RetryPolicy,
    /// Default budget for a single blocking receive.
    pub recv_timeout: Duration,
    /// Wall-clock budget for the whole region, per rank. Every blocking
    /// operation is clamped to the remaining budget, so rank threads are
    /// guaranteed to join within (roughly) this deadline.
    pub deadline: Duration,
    /// Record a wall-clock event timeline ([`SpmdReport::trace`]); all rank
    /// timelines share the epoch taken when the region spawns.
    pub trace: bool,
}

impl Default for Supervisor {
    fn default() -> Self {
        Supervisor {
            faults: FaultPlan::none(),
            retry: RetryPolicy::default(),
            recv_timeout: Duration::from_secs(5),
            deadline: Duration::from_secs(120),
            trace: false,
        }
    }
}

impl Supervisor {
    /// Default supervision: no faults, 5 s receive timeout, 120 s deadline.
    pub fn new() -> Self {
        Supervisor::default()
    }

    /// Replace the fault plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Replace the retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Replace the per-receive timeout.
    pub fn with_recv_timeout(mut self, t: Duration) -> Self {
        self.recv_timeout = t;
        self
    }

    /// Replace the per-rank region deadline.
    pub fn with_deadline(mut self, t: Duration) -> Self {
        self.deadline = t;
        self
    }

    /// Record a wall-clock event timeline on every rank.
    pub fn with_trace(mut self) -> Self {
        self.trace = true;
        self
    }
}

/// Per-rank handle inside an SPMD region: point-to-point operations plus the
/// collectives the LU algorithms need, all volume-counted.
pub struct RankCtx {
    /// This rank's id.
    pub rank: Rank,
    /// Total number of ranks.
    pub p: usize,
    senders: Arc<Vec<Sender<Msg>>>,
    receiver: Receiver<Msg>,
    pending: VecDeque<Parked>,
    stats: CommStats,
    sup: Arc<Supervisor>,
    deadline: Instant,
    /// Next sequence number per destination.
    seqs: Vec<u64>,
    /// (src, seq) pairs already delivered — duplicates are discarded.
    seen: HashSet<(Rank, u64)>,
    retries: u64,
    fault_log: Vec<FaultEvent>,
    tracer: RankTracer,
}

/// Raise a structured error as a panic so convenience (non-`try_`) methods
/// can be used in closures that return plain values; the supervisor
/// downcasts the payload back into the [`SimnetError`].
fn raise(e: SimnetError) -> ! {
    std::panic::panic_any(e)
}

impl RankCtx {
    fn new(
        rank: Rank,
        p: usize,
        senders: Arc<Vec<Sender<Msg>>>,
        receiver: Receiver<Msg>,
        sup: Arc<Supervisor>,
        epoch: Instant,
    ) -> Self {
        let deadline = Instant::now() + sup.deadline;
        let tracer = if sup.trace {
            RankTracer::wall(rank, epoch)
        } else {
            RankTracer::noop()
        };
        RankCtx {
            rank,
            p,
            senders,
            receiver,
            pending: VecDeque::new(),
            stats: CommStats::new(p),
            sup,
            deadline,
            seqs: vec![0; p],
            seen: HashSet::new(),
            retries: 0,
            fault_log: Vec::new(),
            tracer,
        }
    }

    /// Total retransmissions this rank performed for dropped messages.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Remaining region budget, or a [`SimnetError::DeadlineExceeded`].
    fn remaining(&self) -> SimnetResult<Duration> {
        let left = self.deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            Err(SimnetError::DeadlineExceeded {
                rank: self.rank,
                deadline: self.sup.deadline,
            })
        } else {
            Ok(left)
        }
    }

    /// Sleep `d`, clamped to the region deadline.
    fn backoff_sleep(&self, d: Duration) -> SimnetResult<()> {
        let left = self.remaining()?;
        std::thread::sleep(d.min(left));
        Ok(())
    }

    /// If the fault plan crashes this rank at fail-point `step`, record it
    /// and return [`SimnetError::RankCrashed`]. Drivers call this between
    /// algorithm steps so a planned crash surfaces as a structured error at
    /// a well-defined point instead of a half-finished wreck.
    pub fn fail_point(&mut self, step: usize) -> SimnetResult<()> {
        if self.sup.faults.should_crash(self.rank, step) {
            self.fault_log.push(FaultEvent::Crashed {
                rank: self.rank,
                step,
            });
            Err(SimnetError::RankCrashed {
                rank: self.rank,
                step,
            })
        } else {
            Ok(())
        }
    }

    /// Send `data` to `dst` with matching `tag`, applying the fault plan:
    /// dropped transmissions are charged, logged and retransmitted after a
    /// capped exponential backoff until [`RetryPolicy::max_retries`] is
    /// exhausted.
    pub fn try_send(
        &mut self,
        dst: Rank,
        tag: u64,
        mut data: Vec<f64>,
        phase: &'static str,
    ) -> SimnetResult<()> {
        if dst >= self.p {
            return Err(SimnetError::RankOutOfRange {
                rank: dst,
                p: self.p,
            });
        }
        let seq = self.seqs[dst];
        self.seqs[dst] += 1;
        if dst == self.rank {
            // local move: free, but still has to be receivable
            self.pending.push_back(Parked {
                msg: Msg {
                    src: self.rank,
                    tag,
                    seq,
                    data,
                    phase,
                },
                defer: 0,
            });
            return Ok(());
        }
        let plan = &self.sup.faults;
        let drops = plan.drops_for(self.rank, dst, seq);
        for attempt in 0..drops {
            let t0 = self.tracer.begin();
            // the lost transmission is real traffic: charge it
            self.stats.charge(self.rank, data.len() as u64, 0, 1, phase);
            self.fault_log.push(FaultEvent::Dropped {
                src: self.rank,
                dst,
                seq,
                attempt,
            });
            if attempt >= self.sup.retry.max_retries {
                self.tracer
                    .push_retransmit(dst, seq, data.len() as u64, phase, t0);
                return Err(SimnetError::RetriesExhausted {
                    rank: self.rank,
                    dst,
                    retries: self.sup.retry.max_retries,
                });
            }
            self.retries += 1;
            self.backoff_sleep(self.sup.retry.backoff(attempt + 1))?;
            // the retransmission event spans the lost attempt + its backoff
            self.tracer
                .push_retransmit(dst, seq, data.len() as u64, phase, t0);
        }
        if let Some(by) = plan.delay_for(self.rank, dst, seq) {
            self.fault_log.push(FaultEvent::Delayed {
                src: self.rank,
                dst,
                seq,
                by,
            });
            self.backoff_sleep(by)?;
        }
        let copies = if plan.duplicates(self.rank, dst, seq) {
            self.fault_log.push(FaultEvent::Duplicated {
                src: self.rank,
                dst,
                seq,
            });
            2
        } else {
            1
        };
        // the reorder decision is the plan's, so it is logged here on the
        // sender where program order is deterministic; the receiver only
        // applies the deferral (logging at admission time would make the
        // log depend on arrival timing)
        if plan.reorders(self.rank, dst, seq) {
            self.fault_log.push(FaultEvent::Reordered {
                src: self.rank,
                dst,
                seq,
            });
        }
        let len = data.len() as u64;
        for copy in 0..copies {
            let t0 = self.tracer.begin();
            self.stats.charge(self.rank, len, 0, 1, phase);
            // only a duplicated send needs a clone; the last copy moves
            let payload = if copy + 1 < copies {
                data.clone()
            } else {
                std::mem::take(&mut data)
            };
            self.senders[dst]
                .send(Msg {
                    src: self.rank,
                    tag,
                    seq,
                    data: payload,
                    phase,
                })
                .map_err(|_| SimnetError::Disconnected {
                    rank: self.rank,
                    peer: dst,
                })?;
            if copy == 0 {
                self.tracer.push_send(dst, seq, len, phase, t0);
            } else {
                // the duplicate's extra copy is fault overhead, not payload
                self.tracer.push_retransmit(dst, seq, len, phase, t0);
            }
        }
        Ok(())
    }

    /// Run `f` as a named compute region: when the supervisor records a
    /// timeline, the region appears as a timestamped compute event on this
    /// rank. With tracing off this is just `f()`.
    pub fn compute<R>(
        &mut self,
        phase: &'static str,
        label: &'static str,
        f: impl FnOnce() -> R,
    ) -> R {
        let t0 = self.tracer.begin();
        let out = f();
        self.tracer.push_compute(phase, label, t0);
        out
    }

    /// Send `data` to `dst` with matching `tag`. Panics (with a structured
    /// [`SimnetError`] payload) on failure; see [`RankCtx::try_send`].
    pub fn send(&mut self, dst: Rank, tag: u64, data: Vec<f64>, phase: &'static str) {
        if let Err(e) = self.try_send(dst, tag, data, phase) {
            raise(e);
        }
    }

    /// Pull one message off the wire into the pending queue, applying
    /// receiver-side faults: duplicates (same `(src, seq)` seen before) are
    /// discarded (their wire traffic is charged when the surviving copy is
    /// consumed, so the accounting does not depend on arrival timing);
    /// reordered messages are parked with a deferral so they match one
    /// scan late.
    fn admit(&mut self, msg: Msg) {
        if !self.seen.insert((msg.src, msg.seq)) {
            return;
        }
        let defer = if self.sup.faults.reorders(msg.src, self.rank, msg.seq) {
            1
        } else {
            0
        };
        self.pending.push_back(Parked { msg, defer });
    }

    /// Scan the pending queue for a match, decaying reorder deferrals.
    fn take_pending(&mut self, src: Rank, tag: u64) -> Option<Msg> {
        let mut found = None;
        for (i, parked) in self.pending.iter_mut().enumerate() {
            if parked.msg.src == src && parked.msg.tag == tag {
                if parked.defer > 0 {
                    parked.defer -= 1;
                    continue;
                }
                found = Some(i);
                break;
            }
        }
        found.map(|i| self.pending.remove(i).unwrap().msg)
    }

    /// Blocking receive bounded by `budget` (and the region deadline).
    fn recv_inner(&mut self, src: Rank, tag: u64, budget: Duration) -> SimnetResult<Vec<f64>> {
        let start = Instant::now();
        let t0 = self.tracer.begin();
        loop {
            if let Some(msg) = self.take_pending(src, tag) {
                if msg.src != self.rank {
                    let elems = msg.data.len() as u64;
                    self.stats.charge(self.rank, 0, elems, 0, msg.phase);
                    let duplicate = self.sup.faults.duplicates(msg.src, self.rank, msg.seq);
                    if duplicate {
                        // the duplicate copy also crossed the wire into
                        // this rank before the dedup discarded it
                        self.stats.charge(self.rank, 0, elems, 0, msg.phase);
                    }
                    // the recv event spans the wait from the first call
                    self.tracer
                        .push_recv(msg.src, msg.seq, elems, msg.phase, t0, duplicate);
                }
                return Ok(msg.data);
            }
            let waited = start.elapsed();
            let in_budget = budget.saturating_sub(waited);
            if in_budget.is_zero() {
                return Err(SimnetError::Timeout {
                    rank: self.rank,
                    src,
                    tag,
                    waited,
                });
            }
            let mut slice = in_budget.min(self.remaining()?);
            if self
                .pending
                .iter()
                .any(|m| m.defer > 0 || (m.msg.src == src && m.msg.tag == tag))
            {
                // a reorder-deferred message is parked — possibly the very
                // one this call wants, with its deferral already decayed to
                // zero by the scan above; poll so the next scan picks it up
                // even if nothing else arrives on the wire
                slice = slice.min(DEFER_POLL);
            }
            match self.receiver.recv_timeout(slice) {
                Ok(msg) => self.admit(msg),
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(SimnetError::Disconnected {
                        rank: self.rank,
                        peer: src,
                    })
                }
            }
        }
    }

    /// Receive the message from `src` with `tag`, waiting at most the
    /// supervisor's default [`Supervisor::recv_timeout`].
    pub fn try_recv_from(&mut self, src: Rank, tag: u64) -> SimnetResult<Vec<f64>> {
        let budget = self.sup.recv_timeout;
        self.recv_inner(src, tag, budget)
    }

    /// Receive the message from `src` with `tag`, waiting at most
    /// `timeout`. Returns [`SimnetError::Timeout`] if it does not arrive in
    /// time — the rank is left in a usable state and may keep communicating.
    pub fn recv_timeout(
        &mut self,
        src: Rank,
        tag: u64,
        timeout: Duration,
    ) -> SimnetResult<Vec<f64>> {
        self.recv_inner(src, tag, timeout)
    }

    /// Blocking receive of the message from `src` with `tag`. Panics (with
    /// a structured [`SimnetError`] payload) after the supervisor's receive
    /// timeout; see [`RankCtx::try_recv_from`].
    pub fn recv(&mut self, src: Rank, tag: u64) -> Vec<f64> {
        match self.try_recv_from(src, tag) {
            Ok(data) => data,
            Err(e) => raise(e),
        }
    }

    fn try_group_pos(&self, group: &[Rank], op: &'static str) -> SimnetResult<usize> {
        group
            .iter()
            .position(|&r| r == self.rank)
            .ok_or(SimnetError::NotInGroup {
                rank: self.rank,
                op,
            })
    }

    fn try_root_pos(&self, group: &[Rank], root: Rank, op: &'static str) -> SimnetResult<usize> {
        group
            .iter()
            .position(|&r| r == root)
            .ok_or(SimnetError::NotInGroup { rank: root, op })
    }

    /// Fallible binomial-tree broadcast; see [`RankCtx::broadcast`].
    pub fn try_broadcast(
        &mut self,
        group: &[Rank],
        root: Rank,
        data: Option<Vec<f64>>,
        tag: u64,
        phase: &'static str,
    ) -> SimnetResult<Vec<f64>> {
        let p = group.len();
        let me = self.try_group_pos(group, "broadcast")?;
        let root_pos = self.try_root_pos(group, root, "broadcast")?;
        // virtual position with root rotated to 0
        let vpos = (me + p - root_pos) % p;
        let mut have: Option<Vec<f64>> = if vpos == 0 {
            Some(data.expect("root must supply broadcast data"))
        } else {
            None
        };
        // rounds with span 1, 2, 4, ... — receiver in round r has
        // span <= vpos < 2*span; it receives from vpos - span.
        let mut span = 1usize;
        let mut recv_span = None;
        while span < p {
            if vpos >= span && vpos < span * 2 {
                recv_span = Some(span);
            }
            span *= 2;
        }
        if let Some(s) = recv_span {
            let src_vpos = vpos - s;
            let src = group[(src_vpos + root_pos) % p];
            have = Some(self.try_recv_from(src, tag ^ hash_round(s as u64))?);
        }
        // after (possibly) receiving at round s, forward in later rounds
        let data = have.expect("broadcast logic error: no data");
        let mut span = recv_span.map_or(1, |s| s * 2);
        while span < p {
            if vpos < span {
                let dst_vpos = vpos + span;
                if dst_vpos < p {
                    let dst = group[(dst_vpos + root_pos) % p];
                    self.try_send(dst, tag ^ hash_round(span as u64), data.clone(), phase)?;
                }
            }
            span *= 2;
        }
        Ok(data)
    }

    /// Binomial-tree broadcast within `group` from `root`. Members must call
    /// with the same arguments; the root passes `Some(data)`, others `None`.
    /// Returns the broadcast data on every member.
    pub fn broadcast(
        &mut self,
        group: &[Rank],
        root: Rank,
        data: Option<Vec<f64>>,
        tag: u64,
        phase: &'static str,
    ) -> Vec<f64> {
        match self.try_broadcast(group, root, data, tag, phase) {
            Ok(d) => d,
            Err(e) => raise(e),
        }
    }

    /// Fallible binomial-tree sum reduction; see [`RankCtx::reduce_sum`].
    pub fn try_reduce_sum(
        &mut self,
        group: &[Rank],
        root: Rank,
        contribution: Vec<f64>,
        tag: u64,
        phase: &'static str,
    ) -> SimnetResult<Option<Vec<f64>>> {
        let p = group.len();
        let me = self.try_group_pos(group, "reduce")?;
        let root_pos = self.try_root_pos(group, root, "reduce")?;
        let vpos = (me + p - root_pos) % p;
        let mut acc = contribution;
        // mirror of the broadcast tree: in round with span s (descending),
        // positions in [s, 2s) send to position - s.
        let mut spans = Vec::new();
        let mut s = 1usize;
        while s < p {
            spans.push(s);
            s *= 2;
        }
        for &s in spans.iter().rev() {
            if vpos < s {
                let src_vpos = vpos + s;
                if src_vpos < p {
                    let src = group[(src_vpos + root_pos) % p];
                    let other = self.try_recv_from(src, tag ^ hash_round(s as u64))?;
                    assert_eq!(
                        other.len(),
                        acc.len(),
                        "reduce contributions must be equal length"
                    );
                    for (a, b) in acc.iter_mut().zip(other) {
                        *a += b;
                    }
                }
            } else if vpos >= s && vpos < s * 2 {
                let dst_vpos = vpos - s;
                let dst = group[(dst_vpos + root_pos) % p];
                self.try_send(
                    dst,
                    tag ^ hash_round(s as u64),
                    std::mem::take(&mut acc),
                    phase,
                )?;
                // once sent, this rank is done
                return Ok(None);
            }
        }
        Ok(if vpos == 0 { Some(acc) } else { None })
    }

    /// Binomial-tree elementwise-sum reduction onto `root`. Returns
    /// `Some(total)` on the root, `None` elsewhere.
    pub fn reduce_sum(
        &mut self,
        group: &[Rank],
        root: Rank,
        contribution: Vec<f64>,
        tag: u64,
        phase: &'static str,
    ) -> Option<Vec<f64>> {
        match self.try_reduce_sum(group, root, contribution, tag, phase) {
            Ok(r) => r,
            Err(e) => raise(e),
        }
    }

    /// Allreduce = reduce onto `group[0]` + broadcast back.
    pub fn allreduce_sum(
        &mut self,
        group: &[Rank],
        contribution: Vec<f64>,
        tag: u64,
        phase: &'static str,
    ) -> Vec<f64> {
        let root = group[0];
        let reduced = self.reduce_sum(group, root, contribution, tag, phase);
        self.broadcast(group, root, reduced, tag.wrapping_add(0x9e37), phase)
    }

    /// Fallible butterfly; see [`RankCtx::butterfly`].
    pub fn try_butterfly<F>(
        &mut self,
        group: &[Rank],
        mut value: Vec<f64>,
        tag: u64,
        phase: &'static str,
        mut combine: F,
    ) -> SimnetResult<Vec<f64>>
    where
        F: FnMut(Vec<f64>, Vec<f64>) -> Vec<f64>,
    {
        let p = group.len();
        let me = self.try_group_pos(group, "butterfly")?;
        if p <= 1 {
            return Ok(value);
        }
        let rounds = (usize::BITS - (p - 1).leading_zeros()) as usize;
        for round in 0..rounds {
            let span = 1usize << round;
            let partner = me ^ span;
            if partner < p {
                let dst = group[partner];
                self.try_send(dst, tag ^ hash_round(round as u64), value.clone(), phase)?;
                let theirs = self.try_recv_from(dst, tag ^ hash_round(round as u64))?;
                // Canonical argument order (lower group position first) so
                // both partners compute the identical combined value even
                // when `combine` is not commutative.
                value = if me < partner {
                    combine(value, theirs)
                } else {
                    combine(theirs, value)
                };
            }
        }
        Ok(value)
    }

    /// Butterfly exchange-and-combine over `ceil(log2 |group|)` rounds: in
    /// each round, partners exchange their current value and both apply
    /// `combine(mine, theirs)`. This is the paper's tournament-pivoting
    /// communication pattern; `combine` implements the playoff.
    ///
    /// **Convergence caveat**: all members end with the same combined value
    /// only when `|group|` is a power of two (ranks whose partner falls
    /// outside the group skip that round). For arbitrary group sizes,
    /// reduce onto one rank and broadcast back, as
    /// [`RankCtx::allreduce_sum`] does.
    pub fn butterfly<F>(
        &mut self,
        group: &[Rank],
        value: Vec<f64>,
        tag: u64,
        phase: &'static str,
        combine: F,
    ) -> Vec<f64>
    where
        F: FnMut(Vec<f64>, Vec<f64>) -> Vec<f64>,
    {
        match self.try_butterfly(group, value, tag, phase, combine) {
            Ok(v) => v,
            Err(e) => raise(e),
        }
    }

    /// Fallible gather; see [`RankCtx::gather`].
    pub fn try_gather(
        &mut self,
        group: &[Rank],
        root: Rank,
        contribution: Vec<f64>,
        tag: u64,
        phase: &'static str,
    ) -> SimnetResult<Option<Vec<Vec<f64>>>> {
        let me = self.try_group_pos(group, "gather")?;
        let root_pos = self.try_root_pos(group, root, "gather")?;
        if me == root_pos {
            let mut out = vec![Vec::new(); group.len()];
            for (pos, &src) in group.iter().enumerate() {
                if pos == root_pos {
                    out[pos] = contribution.clone();
                } else {
                    out[pos] = self.try_recv_from(src, tag ^ hash_round(pos as u64))?;
                }
            }
            Ok(Some(out))
        } else {
            self.try_send(root, tag ^ hash_round(me as u64), contribution, phase)?;
            Ok(None)
        }
    }

    /// Gather variable-size chunks onto `root`; returns `Some(chunks by
    /// group position)` on the root.
    pub fn gather(
        &mut self,
        group: &[Rank],
        root: Rank,
        contribution: Vec<f64>,
        tag: u64,
        phase: &'static str,
    ) -> Option<Vec<Vec<f64>>> {
        match self.try_gather(group, root, contribution, tag, phase) {
            Ok(r) => r,
            Err(e) => raise(e),
        }
    }

    /// Fallible scatter; see [`RankCtx::scatter`].
    pub fn try_scatter(
        &mut self,
        group: &[Rank],
        root: Rank,
        chunks: Option<Vec<Vec<f64>>>,
        tag: u64,
        phase: &'static str,
    ) -> SimnetResult<Vec<f64>> {
        let me = self.try_group_pos(group, "scatter")?;
        let root_pos = self.try_root_pos(group, root, "scatter")?;
        if me == root_pos {
            let chunks = chunks.expect("root must supply scatter chunks");
            assert_eq!(chunks.len(), group.len());
            let mut mine = Vec::new();
            for (pos, (chunk, &dst)) in chunks.into_iter().zip(group).enumerate() {
                if pos == root_pos {
                    mine = chunk;
                } else {
                    self.try_send(dst, tag ^ hash_round(pos as u64), chunk, phase)?;
                }
            }
            Ok(mine)
        } else {
            self.try_recv_from(root, tag ^ hash_round(me as u64))
        }
    }

    /// Scatter chunks from `root` (which passes `Some(chunks)` ordered by
    /// group position); returns this rank's chunk.
    pub fn scatter(
        &mut self,
        group: &[Rank],
        root: Rank,
        chunks: Option<Vec<Vec<f64>>>,
        tag: u64,
        phase: &'static str,
    ) -> Vec<f64> {
        match self.try_scatter(group, root, chunks, tag, phase) {
            Ok(v) => v,
            Err(e) => raise(e),
        }
    }
}

fn hash_round(r: u64) -> u64 {
    // spread round numbers across tag space so tag ^ hash_round(r) collides
    // with neither raw tags nor other rounds
    r.wrapping_mul(0x9e3779b97f4a7c15).rotate_left(17) | 0x8000_0000_0000_0000
}

/// Outcome of a supervised SPMD region: per-rank results (or errors), the
/// merged — possibly partial — communication statistics, retry counts and
/// the full injected-fault log.
#[derive(Debug)]
pub struct SpmdReport<T> {
    /// Per-rank outcome, indexed by rank. A failed rank's slot holds the
    /// structured error that took it down.
    pub results: Vec<SimnetResult<T>>,
    /// Communication statistics merged across all ranks, including the
    /// traffic failed ranks charged before dying.
    pub stats: CommStats,
    /// Total retransmissions performed for dropped messages.
    pub retries: u64,
    /// Every injected fault, ordered by rank and then by each rank's
    /// program order — deterministic for a given seed.
    pub fault_log: Vec<FaultEvent>,
    /// Wall-clock time from spawn to last join.
    pub elapsed: Duration,
    /// Wall-clock event timeline (when [`Supervisor::trace`] is on):
    /// events of every rank — including ranks that later failed — grouped
    /// by rank, timestamped against the region's shared spawn epoch.
    pub trace: Option<Trace>,
}

/// A supervised region that did not complete cleanly, with everything the
/// caller needs for triage.
#[derive(Debug)]
pub struct SpmdFailure {
    /// The lowest-rank error (the canonical cause).
    pub error: SimnetError,
    /// All per-rank errors, by rank.
    pub errors: Vec<SimnetError>,
    /// Partial communication statistics at the time of failure.
    pub stats: CommStats,
    /// Retransmissions performed before the failure.
    pub retries: u64,
}

impl std::fmt::Display for SpmdFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SPMD region failed ({} rank(s)): {}",
            self.errors.len(),
            self.error
        )
    }
}

impl std::error::Error for SpmdFailure {}

impl<T> SpmdReport<T> {
    /// Collapse into the classic `(values, stats)` pair, or a
    /// [`SpmdFailure`] carrying the partial statistics.
    pub fn into_result(self) -> Result<(Vec<T>, CommStats), SpmdFailure> {
        if self.results.iter().all(|r| r.is_ok()) {
            let vals = self.results.into_iter().map(|r| r.unwrap()).collect();
            Ok((vals, self.stats))
        } else {
            let errors: Vec<SimnetError> =
                self.results.into_iter().filter_map(|r| r.err()).collect();
            Err(SpmdFailure {
                error: errors[0].clone(),
                errors,
                stats: self.stats,
                retries: self.retries,
            })
        }
    }
}

/// Recover a structured error from an unwind payload.
fn error_from_panic(rank: Rank, payload: Box<dyn std::any::Any + Send>) -> SimnetError {
    match payload.downcast::<SimnetError>() {
        Ok(e) => *e,
        Err(payload) => {
            let message = if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_string()
            } else {
                "non-string panic payload".to_string()
            };
            SimnetError::RankPanicked { rank, message }
        }
    }
}

/// Run `f` as a supervised SPMD region over `p` rank threads.
///
/// Unlike [`run_spmd`], a failing rank — crash injected by the
/// [`Supervisor`]'s fault plan, panic, receive timeout, exhausted retries —
/// never hangs or poisons the caller: every blocking receive is bounded by
/// the supervisor's timeout and deadline, each rank's unwind is caught and
/// converted into a [`SimnetError`], and all threads are joined before the
/// [`SpmdReport`] (with partial [`CommStats`]) is returned.
pub fn run_spmd_supervised<T, F>(p: usize, sup: Supervisor, f: F) -> SpmdReport<T>
where
    T: Send,
    F: Fn(&mut RankCtx) -> SimnetResult<T> + Sync,
{
    assert!(p > 0);
    let start = Instant::now();
    let mut senders = Vec::with_capacity(p);
    let mut receivers = Vec::with_capacity(p);
    for _ in 0..p {
        let (s, r) = channel();
        senders.push(s);
        receivers.push(r);
    }
    let senders = Arc::new(senders);
    let tracing = sup.trace;
    let sup = Arc::new(sup);
    // shared trace epoch: every rank timeline is normalized to this t = 0
    let epoch = Instant::now();
    type Slot<T> = Option<(
        SimnetResult<T>,
        CommStats,
        u64,
        Vec<FaultEvent>,
        Vec<Event>,
        Receiver<Msg>,
    )>;
    let results: Mutex<Vec<Slot<T>>> = Mutex::new((0..p).map(|_| None).collect());

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(p);
        for (rank, receiver) in receivers.into_iter().enumerate() {
            let senders = Arc::clone(&senders);
            let sup = Arc::clone(&sup);
            let f = &f;
            let results = &results;
            handles.push(scope.spawn(move || {
                let mut ctx = RankCtx::new(rank, p, senders, receiver, sup, epoch);
                // `ctx` lives outside the unwind boundary so the stats and
                // fault log a dying rank accumulated survive the panic.
                let out = match catch_unwind(AssertUnwindSafe(|| f(&mut ctx))) {
                    Ok(res) => res,
                    Err(payload) => Err(error_from_panic(rank, payload)),
                };
                let log = std::mem::take(&mut ctx.fault_log);
                let events = std::mem::take(&mut ctx.tracer).into_events();
                // the receiver endpoint is parked in the result slot so it
                // outlives this thread: a trailing transmission to a rank
                // that already finished (a duplicate copy racing the
                // original, a retransmission to a crashed rank) queues
                // harmlessly instead of surfacing a spurious Disconnected
                // on the sender
                results.lock().unwrap()[rank] =
                    Some((out, ctx.stats, ctx.retries, log, events, ctx.receiver));
            }));
        }
        // Join every rank thread, not just wait for its closure as the
        // scope does: a thread that has not fully exited still holds its
        // malloc arena, so the next region's threads would open fresh
        // arenas and the process footprint would grow region by region.
        for handle in handles {
            if let Err(payload) = handle.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });

    let mut merged = CommStats::new(p);
    let mut outs = Vec::with_capacity(p);
    let mut retries = 0;
    let mut fault_log = Vec::new();
    let mut events = Vec::new();
    for slot in results.into_inner().unwrap() {
        let (out, stats, rank_retries, log, rank_events, _receiver) =
            slot.expect("rank did not produce a result");
        merged.merge(&stats);
        retries += rank_retries;
        fault_log.extend(log);
        events.extend(rank_events);
        outs.push(out);
    }
    let trace = tracing.then(|| Trace {
        p,
        model: AlphaBeta::aries_like(),
        clock: ClockDomain::Wall,
        events,
    });
    SpmdReport {
        results: outs,
        stats: merged,
        retries,
        fault_log,
        elapsed: start.elapsed(),
        trace,
    }
}

/// Run `f` as an SPMD region over `p` rank threads; returns each rank's
/// result (by rank) and the merged communication statistics.
///
/// This is the fault-free convenience wrapper around
/// [`run_spmd_supervised`]: default supervision, and any rank failure —
/// which the seed simulator turned into a hang or an opaque thread panic —
/// becomes a panic here with the structured error in its message.
///
/// ```
/// use simnet::run_spmd;
/// // allreduce-sum over 4 real rank threads
/// let group = vec![0, 1, 2, 3];
/// let (vals, stats) = run_spmd(4, |ctx| {
///     ctx.allreduce_sum(&group, vec![ctx.rank as f64], 1, "demo")[0]
/// });
/// assert!(vals.iter().all(|&v| v == 6.0));
/// assert!(stats.total_sent() > 0);
/// ```
pub fn run_spmd<T, F>(p: usize, f: F) -> (Vec<T>, CommStats)
where
    T: Send,
    F: Fn(&mut RankCtx) -> T + Sync,
{
    run_spmd_supervised(p, Supervisor::default(), |ctx| Ok(f(ctx)))
        .into_result()
        .unwrap_or_else(|e| panic!("SPMD rank thread panicked: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_to_point_ring() {
        let (vals, stats) = run_spmd(4, |ctx| {
            let next = (ctx.rank + 1) % ctx.p;
            let prev = (ctx.rank + ctx.p - 1) % ctx.p;
            ctx.send(next, 7, vec![ctx.rank as f64], "ring");
            let got = ctx.recv(prev, 7);
            got[0]
        });
        assert_eq!(vals, vec![3.0, 0.0, 1.0, 2.0]);
        assert_eq!(stats.total_sent(), 4);
        assert_eq!(stats.total_messages(), 4);
    }

    #[test]
    fn broadcast_delivers_everywhere() {
        for p in [1, 2, 3, 5, 8] {
            let group: Vec<usize> = (0..p).collect();
            let (vals, stats) = run_spmd(p, |ctx| {
                let data = if ctx.rank == 0 {
                    Some(vec![42.0, 7.0])
                } else {
                    None
                };
                ctx.broadcast(&group, 0, data, 100, "b")
            });
            for v in vals {
                assert_eq!(v, vec![42.0, 7.0]);
            }
            assert_eq!(stats.total_sent(), 2 * (p as u64 - 1), "p={p}");
        }
    }

    #[test]
    fn broadcast_from_nonzero_root() {
        let group = vec![0, 1, 2, 3, 4];
        let (vals, _) = run_spmd(5, |ctx| {
            let data = if ctx.rank == 3 { Some(vec![9.0]) } else { None };
            ctx.broadcast(&group, 3, data, 5, "b")
        });
        assert!(vals.iter().all(|v| v == &vec![9.0]));
    }

    #[test]
    fn reduce_sums_once() {
        for p in [1, 2, 4, 6, 7] {
            let group: Vec<usize> = (0..p).collect();
            let (vals, stats) = run_spmd(p, |ctx| {
                ctx.reduce_sum(&group, 0, vec![1.0, ctx.rank as f64], 11, "r")
            });
            let total: f64 = (0..p).map(|r| r as f64).sum();
            assert_eq!(vals[0], Some(vec![p as f64, total]), "p={p}");
            assert!(vals[1..].iter().all(|v| v.is_none()));
            assert_eq!(stats.total_sent(), 2 * (p as u64 - 1), "p={p}");
        }
    }

    #[test]
    fn allreduce_everyone_gets_sum() {
        let group = vec![0, 1, 2, 3];
        let (vals, _) = run_spmd(4, |ctx| {
            ctx.allreduce_sum(&group, vec![ctx.rank as f64], 21, "ar")
        });
        assert!(vals.iter().all(|v| v == &vec![6.0]));
    }

    #[test]
    fn butterfly_max_converges() {
        // combine = elementwise max; all ranks must end with the global max
        for p in [2, 4, 8] {
            let group: Vec<usize> = (0..p).collect();
            let (vals, stats) = run_spmd(p, |ctx| {
                ctx.butterfly(&group, vec![ctx.rank as f64], 31, "t", |a, b| {
                    vec![a[0].max(b[0])]
                })
            });
            assert!(vals.iter().all(|v| v[0] == (p - 1) as f64), "p={p}");
            let rounds = (usize::BITS - (p - 1).leading_zeros()) as u64;
            assert_eq!(stats.total_sent(), p as u64 * rounds, "p={p}");
        }
    }

    #[test]
    fn gather_scatter_roundtrip() {
        let group = vec![0, 1, 2];
        let (vals, _) = run_spmd(3, |ctx| {
            let gathered = ctx.gather(&group, 0, vec![ctx.rank as f64; ctx.rank + 1], 41, "g");
            let chunks = gathered.map(|mut g| {
                // root reverses chunk order before scattering back
                g.reverse();
                g
            });
            ctx.scatter(&group, 0, chunks, 51, "s")
        });
        assert_eq!(vals[0], vec![2.0, 2.0, 2.0]);
        assert_eq!(vals[1], vec![1.0, 1.0]);
        assert_eq!(vals[2], vec![0.0]);
    }

    #[test]
    fn subgroup_communication_does_not_leak() {
        // two disjoint groups operate concurrently with the same tags
        let (vals, _) = run_spmd(4, |ctx| {
            let group = if ctx.rank < 2 { vec![0, 1] } else { vec![2, 3] };
            let root = group[0];
            let data = if ctx.rank == root {
                Some(vec![root as f64])
            } else {
                None
            };
            ctx.broadcast(&group, root, data, 99, "b")
        });
        assert_eq!(vals, vec![vec![0.0], vec![0.0], vec![2.0], vec![2.0]]);
    }

    #[test]
    fn self_send_is_free_and_receivable() {
        let (vals, stats) = run_spmd(2, |ctx| {
            ctx.send(ctx.rank, 3, vec![5.0], "self");
            ctx.recv(ctx.rank, 3)[0]
        });
        assert_eq!(vals, vec![5.0, 5.0]);
        assert_eq!(stats.total_sent(), 0);
    }

    // ---- fault injection & supervision ----

    #[test]
    fn send_to_out_of_range_rank_is_structured() {
        let sup = Supervisor::default();
        let report = run_spmd_supervised(2, sup, |ctx| {
            if ctx.rank == 0 {
                ctx.try_send(9, 1, vec![1.0], "oops")?;
            }
            Ok(())
        });
        assert_eq!(
            report.results[0],
            Err(SimnetError::RankOutOfRange { rank: 9, p: 2 })
        );
        assert!(report.results[1].is_ok());
    }

    #[test]
    fn recv_timeout_returns_instead_of_hanging() {
        let sup = Supervisor::default().with_recv_timeout(Duration::from_millis(30));
        let t0 = Instant::now();
        let report = run_spmd_supervised(2, sup, |ctx| {
            if ctx.rank == 1 {
                // rank 0 never sends: must time out, not hang
                ctx.try_recv_from(0, 77).map(|_| ())
            } else {
                Ok(())
            }
        });
        assert!(t0.elapsed() < Duration::from_secs(5));
        match &report.results[1] {
            Err(SimnetError::Timeout {
                rank: 1,
                src: 0,
                tag: 77,
                ..
            }) => {}
            other => panic!("expected timeout, got {other:?}"),
        }
    }

    #[test]
    fn dropped_messages_are_retried_and_charged() {
        let plan = FaultPlan::new(11).with_drop_rate(0.4);
        let sup = Supervisor::default().with_faults(plan.clone());
        let report = run_spmd_supervised(2, sup, |ctx| {
            if ctx.rank == 0 {
                for i in 0..32 {
                    ctx.try_send(1, i, vec![1.0, 2.0], "drops")?;
                }
                Ok(0.0)
            } else {
                let mut sum = 0.0;
                for i in 0..32 {
                    sum += ctx.try_recv_from(0, i)?[0];
                }
                Ok(sum)
            }
        });
        // every message arrives exactly once despite the drops
        assert_eq!(report.results[1], Ok(32.0));
        let expected_drops: u64 = (0..32).map(|seq| plan.drops_for(0, 1, seq) as u64).sum();
        assert!(expected_drops > 0, "seed 11 should drop something");
        assert_eq!(report.retries, expected_drops);
        // the accountant saw the retransmissions: 32 messages of 2 elems
        // plus 2 elems per dropped attempt, all sent by rank 0
        assert_eq!(report.stats.sent_by(0), 2 * (32 + expected_drops));
        // but only 32 deliveries were received
        assert_eq!(report.stats.received_by(1), 2 * 32);
    }

    #[test]
    fn duplicates_are_deduplicated() {
        let plan = FaultPlan::new(5).with_duplicate_rate(1.0);
        let sup = Supervisor::default().with_faults(plan);
        let report = run_spmd_supervised(2, sup, |ctx| {
            if ctx.rank == 0 {
                ctx.try_send(1, 7, vec![3.0], "dup")?;
                ctx.try_send(1, 8, vec![4.0], "dup")?;
                Ok(0.0)
            } else {
                let a = ctx.try_recv_from(0, 7)?[0];
                let b = ctx.try_recv_from(0, 8)?[0];
                // a third receive must time out: the duplicates were eaten
                match ctx.recv_timeout(0, 7, Duration::from_millis(20)) {
                    Err(SimnetError::Timeout { .. }) => Ok(a + b),
                    other => panic!("duplicate leaked through dedup: {other:?}"),
                }
            }
        });
        assert_eq!(report.results[1], Ok(7.0));
        // both copies of both messages were charged on both sides
        assert_eq!(report.stats.sent_by(0), 4);
        assert_eq!(report.stats.received_by(1), 4);
    }

    #[test]
    fn reordered_messages_still_deliver() {
        let plan = FaultPlan::new(13).with_reorder_rate(1.0);
        let sup = Supervisor::default().with_faults(plan);
        let report = run_spmd_supervised(2, sup, |ctx| {
            if ctx.rank == 0 {
                for i in 0..8 {
                    ctx.try_send(1, i, vec![i as f64], "ro")?;
                }
                Ok(0.0)
            } else {
                let mut sum = 0.0;
                for i in 0..8 {
                    sum += ctx.try_recv_from(0, i)?[0];
                }
                Ok(sum)
            }
        });
        assert_eq!(report.results[1], Ok(28.0));
        assert!(report
            .fault_log
            .iter()
            .any(|e| matches!(e, FaultEvent::Reordered { .. })));
    }

    #[test]
    fn retries_exhausted_is_structured() {
        let plan = FaultPlan::new(1).with_drop_rate(1.0);
        let retry = RetryPolicy {
            max_retries: 2,
            base_backoff: Duration::from_micros(10),
            max_backoff: Duration::from_micros(50),
        };
        let sup = Supervisor::default()
            .with_faults(plan)
            .with_retry(retry)
            .with_recv_timeout(Duration::from_millis(20));
        let report = run_spmd_supervised(2, sup, |ctx| {
            if ctx.rank == 0 {
                ctx.try_send(1, 1, vec![1.0], "dead")?;
                Ok(())
            } else {
                ctx.try_recv_from(0, 1).map(|_| ())
            }
        });
        assert_eq!(
            report.results[0],
            Err(SimnetError::RetriesExhausted {
                rank: 0,
                dst: 1,
                retries: 2
            })
        );
        // the receiver times out instead of hanging on the dead message
        assert!(matches!(
            report.results[1],
            Err(SimnetError::Timeout { .. })
        ));
    }

    #[test]
    fn crash_plan_is_caught_and_reported() {
        let plan = FaultPlan::new(0).with_crash(1, 3);
        let sup = Supervisor::default()
            .with_faults(plan)
            .with_recv_timeout(Duration::from_millis(40));
        let report = run_spmd_supervised(3, sup, |ctx| {
            for step in 0..5 {
                ctx.fail_point(step)?;
            }
            Ok(ctx.rank)
        });
        assert_eq!(report.results[0], Ok(0));
        assert_eq!(
            report.results[1],
            Err(SimnetError::RankCrashed { rank: 1, step: 3 })
        );
        assert_eq!(report.results[2], Ok(2));
        assert!(report
            .fault_log
            .contains(&FaultEvent::Crashed { rank: 1, step: 3 }));
        let failure = report.into_result().map(|_| ()).unwrap_err();
        assert_eq!(failure.error, SimnetError::RankCrashed { rank: 1, step: 3 });
    }

    #[test]
    fn panic_in_rank_closure_is_converted() {
        let sup = Supervisor::default().with_recv_timeout(Duration::from_millis(30));
        let report: SpmdReport<()> = run_spmd_supervised(2, sup, |ctx| {
            if ctx.rank == 1 {
                panic!("deliberate test panic");
            }
            Ok(())
        });
        match &report.results[1] {
            Err(SimnetError::RankPanicked { rank: 1, message }) => {
                assert!(message.contains("deliberate test panic"));
            }
            other => panic!("expected RankPanicked, got {other:?}"),
        }
    }

    #[test]
    fn fault_schedule_replays_identically() {
        let run = || {
            let plan = FaultPlan::new(99)
                .with_drop_rate(0.3)
                .with_duplicate_rate(0.2)
                .with_reorder_rate(0.2);
            let sup = Supervisor::default().with_faults(plan);
            let report = run_spmd_supervised(3, sup, |ctx| {
                let next = (ctx.rank + 1) % ctx.p;
                let prev = (ctx.rank + ctx.p - 1) % ctx.p;
                for i in 0..16 {
                    ctx.try_send(next, i, vec![ctx.rank as f64; 3], "replay")?;
                }
                let mut sum = 0.0;
                for i in 0..16 {
                    sum += ctx.try_recv_from(prev, i)?[0];
                }
                Ok(sum)
            });
            (
                report.fault_log.clone(),
                report.retries,
                report.stats.total_sent(),
                report
                    .results
                    .iter()
                    .map(|r| r.clone().unwrap())
                    .collect::<Vec<_>>(),
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same seed must replay the identical fault schedule");
    }

    #[test]
    fn zero_fault_supervised_matches_plain_run() {
        let group = vec![0, 1, 2, 3];
        let (_, plain) = run_spmd(4, |ctx| {
            ctx.allreduce_sum(&group, vec![ctx.rank as f64; 5], 21, "eq")
        });
        let report = run_spmd_supervised(4, Supervisor::default(), |ctx| {
            Ok(ctx.allreduce_sum(&group, vec![ctx.rank as f64; 5], 21, "eq"))
        });
        assert_eq!(report.retries, 0);
        assert!(report.fault_log.is_empty());
        let (_, supervised) = report.into_result().unwrap();
        assert_eq!(plain.phase_table(), supervised.phase_table());
        assert_eq!(plain.total_sent(), supervised.total_sent());
        assert_eq!(plain.total_messages(), supervised.total_messages());
    }
}
