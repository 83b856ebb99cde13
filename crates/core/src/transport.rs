//! The sequenced hop transport: reliable delivery of tuple batches under
//! the query processor (the routing infrastructure of the paper's
//! Figure 1, kept apart from query execution).
//!
//! What the wire may do once a [`dr_netsim::FaultPlan`] makes it
//! adversarial: silently drop any message, deliver it twice, or deliver
//! batches out of order; fail a node mid-churn and bring it back with its
//! old state. What [`HopTransport`] guarantees on top, when the deployment
//! turns it on ([`ReliabilityConfig`]):
//!
//! * every shipped tuple batch travels on a per-(direct-neighbor hop,
//!   query) stream and carries a [`StreamSeq`] header;
//! * receivers apply batches in order, buffering ahead-of-order arrivals
//!   (at most [`HopTransport::REORDER_BUFFER_CAP`] per stream), drop
//!   duplicates, and acknowledge cumulatively after every sequenced
//!   arrival — duplicates included, so a retransmit that crossed its ack
//!   stops;
//! * senders retransmit unacknowledged batches with exponential backoff:
//!   retry `n` waits [`HopTransport::RETRANSMIT_TIMEOUT`]` · 2^min(n, 6)`;
//! * after [`HopTransport::MAX_RETRIES`] retransmissions a batch is
//!   abandoned — except the newest unacked batch of its stream, which keeps
//!   retransmitting at the capped interval. Every sequenced batch
//!   advertises the stream's *base* (the lowest sequence number its sender
//!   can still retransmit), so a receiver wedged on an abandoned gap skips
//!   past the hole instead of waiting forever, and because the newest batch
//!   is never abandoned the base advance always eventually arrives — e.g.
//!   across a node's fail/rejoin, where batches lost into the down-time
//!   would otherwise block the post-rejoin link-state refresh behind them.
//!
//! Whatever an abandoned or skipped batch carried is repaired lazily by the
//! processor's soft-state paths (periodic link refresh, copy re-injection
//! on a neighbor's down→up transition, `QueryRequest` re-installation).
//!
//! With the transport off, batches go out unsequenced (`seq: None`): no
//! acks, no retransmission, no duplicate suppression, and the exact legacy
//! wire accounting. That is the right setting for a wire that cannot lose
//! messages — the sequencing header and the acks would only add bytes.
//!
//! The transport is sans-I/O: it is handed the current time and returns
//! the messages to send and the batches ready for delivery. The processor
//! owns the simulator context and makes every send and timer call itself.

use crate::processor::{NetMsg, ProvTag};
use crate::query::QueryId;
use dr_netsim::{SimDuration, SimTime};
use dr_types::{NodeId, Tuple};
use std::collections::BTreeMap;

/// Sequencing header carried by every reliable-transport tuple batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamSeq {
    /// Sequence number of this batch on its (sender, receiver, query)
    /// stream.
    pub seq: u64,
    /// Lowest sequence number the sender still retains for retransmission.
    /// Everything below `base` has either been acknowledged or abandoned
    /// (retry budget exhausted), so a receiver waiting on a gap below
    /// `base` must skip it: those batches are never coming, and a low-rate
    /// stream would otherwise stay wedged behind the hole forever.
    pub base: u64,
}

/// Turns the loss-tolerant transport on, as
/// `Some(ReliabilityConfig::default())` in `ProcessorConfig::reliability`.
/// Its timing is fixed by the [`HopTransport`] constants.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct ReliabilityConfig;

/// A tuple batch: the tuples plus their parallel provenance tags (empty
/// when the query does not record provenance).
pub type Batch = (Vec<Tuple>, Vec<ProvTag>);

/// What one received tuple message produced.
#[derive(Debug, Default)]
pub struct Received {
    /// Batches ready to apply, in stream order.
    pub ready: Vec<Batch>,
    /// The cumulative acknowledgment to send back to the sender
    /// (sequenced batches only).
    pub ack: Option<NetMsg>,
    /// The batch was already applied or already buffered, and was dropped.
    pub duplicate: bool,
    /// Sequence numbers skipped without delivery (abandoned holes).
    pub gaps_skipped: u64,
}

/// What one retransmit scan produced.
#[derive(Debug, Default)]
pub struct Scan {
    /// Overdue batches to resend, with their hop.
    pub resend: Vec<(NodeId, NetMsg)>,
    /// Delay of the next scan, while anything is still in flight.
    pub next_scan: Option<SimDuration>,
}

/// Send side of one (hop, query) stream.
#[derive(Debug, Default)]
struct OutStream {
    /// Sequence number the next batch will carry.
    next_seq: u64,
    /// Sent-but-unacknowledged batches, keyed by sequence number.
    unacked: BTreeMap<u64, PendingBatch>,
}

/// One sent batch awaiting acknowledgment.
#[derive(Debug)]
struct PendingBatch {
    /// Kept whole so retransmissions carry the same provenance tags as the
    /// original.
    batch: Batch,
    /// Retransmissions performed so far.
    retries: u32,
    /// When the next retransmission is due.
    due: SimTime,
}

/// Receive side of one (hop, query) stream.
#[derive(Debug, Default)]
struct InStream {
    /// Next sequence number expected in order (== the cumulative ack).
    next_expected: u64,
    /// Out-of-order batches held until the gap before them fills.
    buffered: BTreeMap<u64, Batch>,
}

/// One node's hop transport: every (hop, query) send and receive stream.
#[derive(Debug, Default)]
pub struct HopTransport {
    reliable: bool,
    outgoing: BTreeMap<(NodeId, QueryId), OutStream>,
    incoming: BTreeMap<(NodeId, QueryId), InStream>,
}

impl HopTransport {
    /// Base retransmission timeout, and the interval of the retransmit scan.
    pub const RETRANSMIT_TIMEOUT: SimDuration = SimDuration::from_millis(500);
    /// Retransmissions attempted before a batch is abandoned. At 20% loss
    /// this leaves a residual loss below 3·10⁻⁶ per batch.
    pub const MAX_RETRIES: u32 = 8;
    /// Cap on the backoff exponent: retry `n` waits
    /// `RETRANSMIT_TIMEOUT · 2^min(n, MAX_BACKOFF_SHIFT)`.
    pub const MAX_BACKOFF_SHIFT: u32 = 6;
    /// Out-of-order batches buffered per stream before the receiver gives
    /// up on the gap and skips ahead (bounds memory if a batch is
    /// permanently lost).
    pub const REORDER_BUFFER_CAP: usize = 64;

    /// A transport that sequences batches when `reliability` is set, and
    /// sends them unsequenced otherwise.
    pub fn new(reliability: Option<ReliabilityConfig>) -> HopTransport {
        HopTransport { reliable: reliability.is_some(), ..HopTransport::default() }
    }

    /// Frame one batch of `qid` for the direct neighbor `hop`. When
    /// reliable, the batch takes the next sequence number of the (hop,
    /// query) stream and is retained until the hop's cumulative ack covers
    /// it.
    pub fn frame(
        &mut self,
        now: SimTime,
        hop: NodeId,
        qid: QueryId,
        items: Vec<Tuple>,
        provs: Vec<ProvTag>,
    ) -> NetMsg {
        if !self.reliable {
            return NetMsg::Tuples { qid, seq: None, items, provs };
        }
        let stream = self.outgoing.entry((hop, qid)).or_default();
        let seq = stream.next_seq;
        stream.next_seq += 1;
        let pending = PendingBatch {
            batch: (items.clone(), provs.clone()),
            retries: 0,
            due: now + Self::RETRANSMIT_TIMEOUT,
        };
        stream.unacked.insert(seq, pending);
        let base = *stream.unacked.keys().next().expect("just inserted");
        NetMsg::Tuples { qid, seq: Some(StreamSeq { seq, base }), items, provs }
    }

    /// The timer to arm for the retransmit scan after a framed batch went
    /// out (`None` when the transport is off).
    pub fn scan_delay(&self) -> Option<SimDuration> {
        self.reliable.then_some(Self::RETRANSMIT_TIMEOUT)
    }

    /// Receive one tuple batch of `qid` from `from`. An unsequenced batch
    /// is ready at once. A sequenced one is checked for duplicates,
    /// buffered if ahead of order, drained in order, and acknowledged
    /// cumulatively. Gaps below the header's `base` are abandoned holes:
    /// whatever is held from them is delivered (in order) and the rest is
    /// skipped rather than waited for.
    pub fn receive(
        &mut self,
        from: NodeId,
        qid: QueryId,
        seq: Option<StreamSeq>,
        items: Vec<Tuple>,
        provs: Vec<ProvTag>,
    ) -> Received {
        let mut out = Received::default();
        let Some(StreamSeq { seq, base }) = seq else {
            out.ready.push((items, provs));
            return out;
        };
        let stream = self.incoming.entry((from, qid)).or_default();
        while stream.next_expected < base {
            match stream.buffered.remove(&stream.next_expected) {
                Some(batch) => out.ready.push(batch),
                None => out.gaps_skipped += 1,
            }
            stream.next_expected += 1;
        }
        // Held batches at and past the base are in order now, too.
        stream.drain(&mut out.ready);
        if seq < stream.next_expected || stream.buffered.contains_key(&seq) {
            // Already applied or already held: a retransmit crossed the ack
            // (or the wire duplicated the batch). Re-ack so the sender stops.
            out.duplicate = true;
        } else {
            stream.buffered.insert(seq, (items, provs));
            stream.drain(&mut out.ready);
            // A permanently lost batch must not pin unbounded buffer: skip
            // the gap once too much is held.
            if stream.buffered.len() > Self::REORDER_BUFFER_CAP {
                if let Some(&lowest) = stream.buffered.keys().next() {
                    out.gaps_skipped += lowest - stream.next_expected;
                    stream.next_expected = lowest;
                    stream.drain(&mut out.ready);
                }
            }
        }
        out.ack = Some(NetMsg::Ack { qid, cumulative: stream.next_expected });
        out
    }

    /// Apply a cumulative ack from `from` for `qid`'s stream.
    pub fn on_ack(&mut self, from: NodeId, qid: QueryId, cumulative: u64) {
        if let Some(stream) = self.outgoing.get_mut(&(from, qid)) {
            stream.unacked.retain(|&s, _| s >= cumulative);
        }
    }

    /// Resend every overdue unacked batch (exponential backoff per batch)
    /// and abandon overdue batches past the retry budget — except each
    /// stream's newest, whose `base` advance is what unwedges the receiver.
    pub fn retransmit_scan(&mut self, now: SimTime) -> Scan {
        let mut scan = Scan::default();
        let mut in_flight = false;
        for (&(hop, qid), stream) in self.outgoing.iter_mut() {
            let newest = stream.unacked.keys().next_back().copied();
            stream.unacked.retain(|&seq, batch| {
                batch.due > now || batch.retries < Self::MAX_RETRIES || Some(seq) == newest
            });
            let Some(&base) = stream.unacked.keys().next() else { continue };
            for (&seq, batch) in stream.unacked.iter_mut() {
                in_flight = true;
                if batch.due > now {
                    continue;
                }
                batch.retries = batch.retries.saturating_add(1);
                let backoff = 1 << batch.retries.min(Self::MAX_BACKOFF_SHIFT);
                batch.due = now + Self::RETRANSMIT_TIMEOUT.times(backoff);
                let (items, provs) = batch.batch.clone();
                let msg = NetMsg::Tuples { qid, seq: Some(StreamSeq { seq, base }), items, provs };
                scan.resend.push((hop, msg));
            }
        }
        scan.next_scan = in_flight.then_some(Self::RETRANSMIT_TIMEOUT);
        scan
    }

    /// Retire both directions of every stream of `qid` (query teardown):
    /// unacked batches must not be retransmitted into a dead query, and the
    /// receive side has nothing left to order.
    pub fn retire(&mut self, qid: QueryId) {
        self.outgoing.retain(|(_, q), _| *q != qid);
        self.incoming.retain(|(_, q), _| *q != qid);
    }
}

impl InStream {
    /// Move the in-order prefix of the buffer into `ready`.
    fn drain(&mut self, ready: &mut Vec<Batch>) {
        while let Some(batch) = self.buffered.remove(&self.next_expected) {
            ready.push(batch);
            self.next_expected += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: NodeId = NodeId::new(0);
    const B: NodeId = NodeId::new(1);
    const Q: QueryId = 7;

    /// A one-tuple batch whose single field tags it with `n`.
    fn batch(n: i64) -> Vec<Tuple> {
        vec![Tuple::new("t", vec![dr_types::Value::Int(n)])]
    }

    fn header(msg: &NetMsg) -> StreamSeq {
        match msg {
            NetMsg::Tuples { seq: Some(s), .. } => *s,
            other => panic!("not a sequenced batch: {other:?}"),
        }
    }

    fn cumulative(rx: &Received) -> u64 {
        match rx.ack {
            Some(NetMsg::Ack { cumulative, .. }) => cumulative,
            ref other => panic!("no ack: {other:?}"),
        }
    }

    /// The scripted wire: hand one framed message to the receiver.
    fn deliver(rx: &mut HopTransport, msg: &NetMsg) -> Received {
        match msg.clone() {
            NetMsg::Tuples { qid, seq, items, provs } => rx.receive(A, qid, seq, items, provs),
            other => panic!("not a tuple batch: {other:?}"),
        }
    }

    /// The tag of every ready batch, in delivery order.
    fn tags(rx: &Received) -> Vec<i64> {
        rx.ready
            .iter()
            .map(|(items, _)| match items[0].field(0) {
                Some(dr_types::Value::Int(n)) => *n,
                other => panic!("untagged batch: {other:?}"),
            })
            .collect()
    }

    /// A reliable sender that framed batches tagged `0..n` at t=0.
    fn sender(n: i64) -> (HopTransport, Vec<NetMsg>) {
        let mut tx = HopTransport::new(Some(ReliabilityConfig::default()));
        let msgs = (0..n).map(|i| tx.frame(SimTime::ZERO, B, Q, batch(i), Vec::new())).collect();
        (tx, msgs)
    }

    fn reliable() -> HopTransport {
        HopTransport::new(Some(ReliabilityConfig::default()))
    }

    /// Run scans every `RETRANSMIT_TIMEOUT` up to `until`, returning the
    /// time and sequence number of every resend.
    fn scans(tx: &mut HopTransport, until: SimTime) -> Vec<(SimTime, u64)> {
        let mut out = Vec::new();
        let mut now = SimTime::ZERO;
        while now < until {
            now += HopTransport::RETRANSMIT_TIMEOUT;
            let scan = tx.retransmit_scan(now);
            out.extend(scan.resend.iter().map(|(_, msg)| (now, header(msg).seq)));
        }
        out
    }

    #[test]
    fn unsequenced_batches_are_ready_at_once_and_never_acked() {
        let mut tx = HopTransport::new(None);
        let msg = tx.frame(SimTime::ZERO, B, Q, batch(1), Vec::new());
        assert!(matches!(msg, NetMsg::Tuples { seq: None, .. }));
        assert_eq!(tx.scan_delay(), None);
        let rx = deliver(&mut HopTransport::new(None), &msg);
        assert_eq!(tags(&rx), vec![1]);
        assert!(rx.ack.is_none());
        assert!(tx.retransmit_scan(SimTime::from_secs(10)).resend.is_empty());
    }

    #[test]
    fn in_order_batches_are_delivered_and_acked_cumulatively() {
        let (mut tx, msgs) = sender(3);
        let mut rx = reliable();
        for (i, msg) in msgs.iter().enumerate() {
            assert_eq!(header(msg), StreamSeq { seq: i as u64, base: 0 });
            let got = deliver(&mut rx, msg);
            assert_eq!(tags(&got), vec![i as i64]);
            assert_eq!(cumulative(&got), i as u64 + 1);
            assert!(!got.duplicate);
        }
        tx.on_ack(B, Q, 3);
        let scan = tx.retransmit_scan(SimTime::from_secs(10));
        assert!(scan.resend.is_empty());
        assert_eq!(scan.next_scan, None);
    }

    #[test]
    fn duplicate_is_dropped_and_reacked() {
        let (_, msgs) = sender(3);
        let mut rx = reliable();
        deliver(&mut rx, &msgs[0]);
        let again = deliver(&mut rx, &msgs[0]);
        assert!(again.duplicate && again.ready.is_empty());
        assert_eq!(cumulative(&again), 1);
        // A duplicate of a batch still held in the reorder buffer, too.
        assert!(deliver(&mut rx, &msgs[2]).ready.is_empty());
        let held = deliver(&mut rx, &msgs[2]);
        assert!(held.duplicate && held.ready.is_empty());
        assert_eq!(cumulative(&held), 1);
    }

    #[test]
    fn out_of_order_batches_are_buffered_then_drained() {
        let (_, msgs) = sender(3);
        let mut rx = reliable();
        for i in [2, 1] {
            let got = deliver(&mut rx, &msgs[i]);
            assert!(got.ready.is_empty());
            assert_eq!(cumulative(&got), 0);
        }
        let got = deliver(&mut rx, &msgs[0]);
        assert_eq!(tags(&got), vec![0, 1, 2]);
        assert_eq!(cumulative(&got), 3);
    }

    #[test]
    fn abandoned_batches_are_skipped_and_counted_on_base_advance() {
        // Batches 0, 1 and 2 are lost on every try; 3 (the newest) arrives
        // once, and again only after the others were abandoned.
        let (mut tx, msgs) = sender(4);
        let mut rx = reliable();
        deliver(&mut rx, &msgs[3]); // held ahead of the hole
        let mut now = SimTime::ZERO;
        let mut last = None;
        for _ in 0..400 {
            now += HopTransport::RETRANSMIT_TIMEOUT;
            for (_, msg) in tx.retransmit_scan(now).resend {
                last = Some(msg);
            }
        }
        let last = last.expect("the newest batch keeps retransmitting");
        assert_eq!(header(&last), StreamSeq { seq: 3, base: 3 });
        let got = deliver(&mut rx, &last);
        // 0, 1 and 2 are skipped. The resend is a duplicate of the held 3,
        // which the base advance has put in order: it is delivered now, not
        // left waiting for some later batch.
        assert_eq!(got.gaps_skipped, 3);
        assert_eq!(tags(&got), vec![3]);
        assert!(got.duplicate);
        assert_eq!(cumulative(&got), 4);
    }

    #[test]
    fn overflowing_the_reorder_cap_skips_and_counts() {
        let cap = HopTransport::REORDER_BUFFER_CAP as i64;
        let (_, msgs) = sender(cap + 3);
        let mut rx = reliable();
        // Batches 0 and 1 are lost; 2..=cap+1 fill the buffer to the cap.
        for msg in &msgs[2..=cap as usize + 1] {
            let got = deliver(&mut rx, msg);
            assert!(got.ready.is_empty() && got.gaps_skipped == 0);
        }
        let got = deliver(&mut rx, &msgs[cap as usize + 2]);
        assert_eq!(got.gaps_skipped, 2);
        assert_eq!(tags(&got), (2..cap + 3).collect::<Vec<_>>());
        assert_eq!(cumulative(&got), cap as u64 + 3);
    }

    #[test]
    fn batches_are_abandoned_after_the_retry_budget_except_the_newest() {
        let (mut tx, _) = sender(2);
        let resends = scans(&mut tx, SimTime::from_secs(600));
        let count = |seq| resends.iter().filter(|(_, s)| *s == seq).count();
        assert_eq!(count(0), HopTransport::MAX_RETRIES as usize);
        assert!(count(1) > 2 * HopTransport::MAX_RETRIES as usize);
        assert!(tx.retransmit_scan(SimTime::from_secs(601)).next_scan.is_some());
    }

    #[test]
    fn backoff_doubles_up_to_the_cap() {
        let (mut tx, _) = sender(1);
        let times: Vec<SimTime> =
            scans(&mut tx, SimTime::from_secs(400)).into_iter().map(|(t, _)| t).collect();
        assert_eq!(times[0], SimTime::ZERO + HopTransport::RETRANSMIT_TIMEOUT);
        for (n, pair) in times.windows(2).enumerate() {
            let shift = (n as u32 + 1).min(HopTransport::MAX_BACKOFF_SHIFT);
            let want = HopTransport::RETRANSMIT_TIMEOUT.times(1 << shift);
            assert_eq!(pair[1].since(pair[0]), want, "after retransmit {}", n + 1);
        }
        assert!(times.len() > 10, "the cap was reached: {times:?}");
    }

    #[test]
    fn retire_drops_both_directions() {
        let mut t = reliable();
        t.frame(SimTime::ZERO, B, Q, batch(0), Vec::new());
        t.frame(SimTime::ZERO, B, Q + 1, batch(1), Vec::new());
        let (_, ahead) = sender(2);
        assert!(deliver(&mut t, &ahead[1]).ready.is_empty());
        t.retire(Q);
        let scan = t.retransmit_scan(SimTime::from_secs(1));
        let qids: Vec<QueryId> = scan
            .resend
            .iter()
            .map(|(_, msg)| match msg {
                NetMsg::Tuples { qid, .. } => *qid,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(qids, vec![Q + 1]);
        // The held batch is gone with the receive stream: no longer a dup.
        assert!(!deliver(&mut t, &ahead[1]).duplicate);
    }
}
