//! Payload shipping: *how* a c-struct travels between agents.
//!
//! The agents exchange one kind of thing — a c-struct in a "1b", "2a" or
//! "2b" (§3.2). Everything about its transport is decided here, once:
//!
//! * [`Payload`] is what goes on the wire: the whole value, or a suffix
//!   delta against a base the receiver is optimistically assumed to hold,
//!   authenticated by [`CStruct::digest`];
//! * [`Shipper`] is the **sender half**: the per-peer `(round, len)`
//!   bases, the single send loop (full when delta shipping is off or no
//!   usable base exists, delta otherwise), the answer to [`Msg::NeedFull`]
//!   and the base drops on [`Msg::Hello`] / link reset. Bytes are counted
//!   by the host that encodes each message, not here;
//! * [`Inbox`] owns what peers sent: per round and per sender, the last
//!   value resolved from each and the ones kept aside because they could
//!   not follow a truncation;
//! * [`Receiver`] is the **receiver half**: resolve a delta in place
//!   against the base it takes out of an inbox, retry a full value once
//!   after compaction, reply `NeedFull` / `NeedStable`, and the
//!   [`Msg::Stable`] / [`Msg::NeedStable`] catch-up handlers.
//!
//! **Catch-up asks only for what it can use.** (A) A full value ahead of
//! the watermark draws `NeedStable` only when no segment is pending there.
//! (B) Once a sender's full value arrived ahead, its deltas draw no
//! `NeedFull` until the watermark moves, a full value from it resolves, or
//! it says `Hello` (or its link resets). (C) `NeedStable { from }` gets the
//! retained run that starts at `from`, or nothing: later runs can't connect.
//!
//! **One frame.** A delta resolves against the receiver's own base, at
//! the receiver's watermark. Sender and receiver cross a compaction
//! boundary at different instants, but the digest chains from the logical
//! origin, through the agreed stable segments, so it does not depend on
//! which of them truncated first.
//!
//! Agents keep only what is theirs: which value is primary, which inboxes
//! and side state follow a truncation ([`Receiver::realign`]), and what to
//! do with a resolved value.

use crate::agents::metrics;
use crate::compact::Compactor;
use crate::config::WireConfig;
use crate::msg::Msg;
use crate::round::Round;
use mcpaxos_actor::wire::{Wire, WireError};
use mcpaxos_actor::{Context, Metric, ProcessId};
use mcpaxos_cstruct::CStruct;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A c-struct carried by `1b`/`2a`/`2b` messages: either the whole value
/// or a *delta* against a base the receiver is known (optimistically) to
/// hold.
///
/// Senders that just shipped a value of `base_len` commands to a peer can
/// follow up with `Delta { base_len, digest, suffix }` — the commands at
/// logical positions `base_len..` — turning the O(n²) cumulative cost of
/// re-serializing ever-growing histories into O(n). Receivers reconstruct
/// against their stored copy of the sender's last value and answer
/// [`Msg::NeedFull`] on a gap (lost base, truncated past the base), upon
/// which the sender falls back to `Full`. `Full` payloads are `Arc`-shared
/// exactly as before: fan-out clones a pointer, not the history.
///
/// `base_len` alone cannot authenticate the base: after a crash/recover a
/// receiver can hold an equal-length-but-divergent value (e.g. a vote
/// rolled back to an older history of the same length), and appending the
/// suffix to it would silently corrupt the reconstruction. `digest` is
/// [`CStruct::digest`] of the *result* the sender intends; receivers
/// verify it after applying the suffix to their copy of the sender's
/// value, at their own watermark, and treat a mismatch exactly like a
/// gap.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Payload<C: CStruct> {
    /// The whole c-struct, shared across the fan-out.
    Full(Arc<C>),
    /// The commands at logical positions `base_len..` of the sender's
    /// value; the receiver appends them to its copy of the sender's last
    /// shipped value (`base_len` counts the truncated stable prefix too,
    /// so lengths are comparable across compactions).
    Delta {
        /// Logical length of the base the suffix extends.
        base_len: u64,
        /// [`CStruct::digest`] of the sender's full value (base +
        /// suffix): what the receiver must reconstruct.
        digest: u64,
        /// The commands beyond the base, in the sender's order.
        suffix: Vec<C::Cmd>,
    },
}

impl<C: CStruct> Payload<C> {
    /// Wraps a full value.
    pub fn full(v: C) -> Self {
        Payload::Full(Arc::new(v))
    }

    /// Whether this is a delta payload.
    pub fn is_delta(&self) -> bool {
        matches!(self, Payload::Delta { .. })
    }

    /// The shared full value, when this is a `Full` payload. Test and
    /// harness convenience; agents resolve payloads against their bases.
    pub fn as_full(&self) -> Option<&Arc<C>> {
        match self {
            Payload::Full(v) => Some(v),
            Payload::Delta { .. } => None,
        }
    }
}

/// `C` and `Arc<C>` convert into full payloads, so call sites (and tests)
/// can keep writing `val: value.into()`.
impl<C: CStruct> From<C> for Payload<C> {
    fn from(v: C) -> Self {
        Payload::full(v)
    }
}

impl<C: CStruct> From<Arc<C>> for Payload<C> {
    fn from(v: Arc<C>) -> Self {
        Payload::Full(v)
    }
}

impl<C: CStruct> Wire for Payload<C> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Payload::Full(v) => {
                out.push(0);
                v.encode(out);
            }
            Payload::Delta {
                base_len,
                digest,
                suffix,
            } => {
                out.push(1);
                base_len.encode(out);
                digest.encode(out);
                suffix.encode(out);
            }
        }
    }
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        match u8::decode(input)? {
            0 => Ok(Payload::Full(Arc::<C>::decode(input)?)),
            1 => Ok(Payload::Delta {
                base_len: u64::decode(input)?,
                digest: u64::decode(input)?,
                suffix: Wire::decode(input)?,
            }),
            _ => Err(WireError {
                what: "invalid payload tag",
            }),
        }
    }
}

/// Rounds of per-round bookkeeping an agent keeps before pruning.
pub(crate) const ROUND_WINDOW: usize = 8;

/// Drops the lowest rounds of `m` beyond the last [`ROUND_WINDOW`].
pub(crate) fn prune_rounds<V>(m: &mut BTreeMap<Round, V>) {
    while m.len() > ROUND_WINDOW {
        m.pop_first();
    }
}

/// Restart announcement: the caller's ingest caches died with its volatile
/// state, so `peers` holding a delta base for it must downgrade to `Full`.
/// Pure optimization — a lost `Hello` just re-opens the `NeedFull` path —
/// so it only costs wire bytes when delta shipping is on.
pub(crate) fn announce_restart<C: CStruct>(
    wire: &WireConfig,
    peers: &[ProcessId],
    ctx: &mut dyn Context<Msg<C>>,
) {
    if wire.delta_ship {
        ctx.multicast(peers, Msg::Hello);
    }
}

/// The sender half: ships one agent's primary value as `wrap(round,
/// payload)` messages and tracks what each peer holds of it.
pub(crate) struct Shipper<C: CStruct> {
    delta_ship: bool,
    wrap: fn(Round, Payload<C>) -> Msg<C>,
    /// Per peer: the round and logical value length of the last payload
    /// shipped to it — the base the next delta extends.
    bases: BTreeMap<ProcessId, (Round, u64)>,
}

impl<C: CStruct> Shipper<C> {
    /// A shipper emitting `wrap(round, payload)` messages (`P2a` for
    /// coordinators, `P2b` for acceptors).
    pub(crate) fn new(wire: &WireConfig, wrap: fn(Round, Payload<C>) -> Msg<C>) -> Self {
        Shipper {
            delta_ship: wire.delta_ship,
            wrap,
            bases: BTreeMap::new(),
        }
    }

    /// The send loop: ships `val` for `round` to each of `targets`, in
    /// order. A peer whose base is this round's shorter value gets the
    /// suffix beyond it (authenticated by one digest of `val`); everyone
    /// else — always, when delta shipping is off — shares the full `Arc`.
    /// Lost messages surface as `NeedFull`, answered by [`Self::resync`].
    pub(crate) fn ship(
        &mut self,
        targets: &[ProcessId],
        round: Round,
        val: &Arc<C>,
        ctx: &mut dyn Context<Msg<C>>,
    ) {
        let total = val.total_len();
        let (mut digest, mut deltas) = (None, 0);
        for &t in targets {
            let suffix = match self.bases.get(&t) {
                Some(&(r, len)) if r == round && len <= total => {
                    val.suffix_from(len).map(|s| (len, s))
                }
                _ => None,
            };
            let payload = match suffix {
                Some((base_len, suffix)) => {
                    deltas += 1;
                    Payload::Delta {
                        base_len,
                        digest: *digest.get_or_insert_with(|| val.digest()),
                        suffix,
                    }
                }
                None => Payload::Full(val.clone()),
            };
            if self.delta_ship {
                self.bases.insert(t, (round, total));
            }
            ctx.send(t, (self.wrap)(round, payload));
        }
        if deltas > 0 {
            ctx.metric(Metric::add(metrics::DELTA_SENDS, deltas));
        }
    }

    /// Answers `from`'s [`Msg::NeedFull`] for `round`: re-ships the full
    /// current value and (under delta shipping) re-bases the peer on it,
    /// or — when the sender has moved on to another round — just forgets
    /// the peer's base.
    pub(crate) fn resync(
        &mut self,
        from: ProcessId,
        round: Round,
        current: Round,
        val: Option<&Arc<C>>,
        ctx: &mut dyn Context<Msg<C>>,
    ) {
        if round != current {
            self.bases.remove(&from);
        } else if let Some(val) = val {
            ctx.metric(Metric::incr(metrics::FULL_RESYNCS));
            if self.delta_ship {
                self.bases.insert(from, (round, val.total_len()));
            }
            ctx.send(from, (self.wrap)(round, Payload::Full(val.clone())));
        }
    }

    /// `peer` restarted ([`Msg::Hello`]) or its link was severed and
    /// healed: whatever base we had established with it may be gone on
    /// its side. Dropping ours means the next payload ships `Full`, saving
    /// the `NeedFull` round-trip a stale delta would trigger.
    pub(crate) fn reset(&mut self, peer: ProcessId, ctx: &mut dyn Context<Msg<C>>) {
        if self.bases.remove(&peer).is_some() {
            ctx.metric(Metric::incr(metrics::BASE_RESETS));
        }
    }
}

/// The values an agent received from its peers, per round and per
/// sender: the last value resolved from each, at the local watermark, and
/// the ones kept aside because they could not follow a truncation. Each is
/// the base the sender's next delta extends ([`Receiver::ingest`]).
pub(crate) struct Inbox<C: CStruct> {
    rounds: BTreeMap<Round, BTreeMap<ProcessId, Arc<C>>>,
    /// Per sender: a round and value of it that could not follow a
    /// truncation (the sender lags, so it does not cover the segment yet),
    /// still the base of its next delta for that round. That delta, or
    /// any full value from the sender, takes it out.
    behind: BTreeMap<ProcessId, (Round, Arc<C>)>,
    /// Per sender: the local watermark at which its full value arrived
    /// ahead; its deltas draw no `NeedFull` while the watermark stays.
    ahead: BTreeMap<ProcessId, u64>,
}

impl<C: CStruct> Default for Inbox<C> {
    fn default() -> Self {
        Inbox {
            rounds: BTreeMap::new(),
            behind: BTreeMap::new(),
            ahead: BTreeMap::new(),
        }
    }
}

impl<C: CStruct> Inbox<C> {
    /// Each sender's last value in `round`.
    pub(crate) fn round(&self, round: Round) -> Option<&BTreeMap<ProcessId, Arc<C>>> {
        self.rounds.get(&round)
    }

    /// Each sender's last value in `round`: none when the round is not
    /// kept.
    pub(crate) fn values(&self, round: Round) -> impl Iterator<Item = &C> + Clone {
        let m = self.rounds.get(&round);
        m.into_iter().flat_map(|m| m.values().map(|v| v.as_ref()))
    }

    /// Stores `v` as `from`'s last value in `round`, and drops the lowest
    /// rounds beyond the last [`ROUND_WINDOW`].
    pub(crate) fn insert(&mut self, round: Round, from: ProcessId, v: Arc<C>) {
        self.rounds.entry(round).or_default().insert(from, v);
        prune_rounds(&mut self.rounds);
    }

    /// Brings every stored value to `comp`'s watermark. One that cannot
    /// follow is dropped; when it is behind, it is kept aside as the base
    /// of its sender's next delta.
    pub(crate) fn follow(&mut self, comp: &Compactor<C>) {
        let behind = &mut self.behind;
        for (&round, m) in self.rounds.iter_mut() {
            m.retain(|&p, v| {
                let aligned = comp.normalize_arc(v);
                if !aligned && v.watermark() < comp.watermark() {
                    behind.insert(p, (round, v.clone()));
                }
                aligned
            });
        }
    }

    /// `peer` restarted ([`Msg::Hello`]) or its link was reset: its deltas
    /// may ask for its full value again.
    pub(crate) fn reset(&mut self, peer: ProcessId) {
        self.ahead.remove(&peer);
    }

    /// Asks `from` for its full value in `round`, unless its last one was
    /// ahead of the local watermark `w`, which has not moved since.
    fn need_full(&self, from: ProcessId, round: Round, w: u64, ctx: &mut dyn Context<Msg<C>>) {
        if self.ahead.get(&from) != Some(&w) {
            ctx.send(from, Msg::NeedFull { round });
        }
    }

    /// Takes out the base of `from`'s next delta in `round`: its stored
    /// value (flagged `true`), else the one kept aside for that round.
    fn take_base(&mut self, round: Round, from: ProcessId) -> Option<(Arc<C>, bool)> {
        if let Some(v) = self.rounds.get_mut(&round).and_then(|m| m.remove(&from)) {
            return Some((v, true));
        }
        match self.behind.remove(&from) {
            Some((r, v)) if r == round => Some((v, false)),
            _ => None,
        }
    }
}

/// What [`Receiver::ingest`] stored for a sender.
pub(crate) struct Ingested<C> {
    /// The sender's value, at the local watermark.
    pub(crate) val: Arc<C>,
    /// Whether it differs from the base it was resolved against.
    pub(crate) changed: bool,
    /// Whether it holds more commands than the value stored before it, or
    /// none was stored.
    pub(crate) grew: bool,
}

/// The receiver half, implemented by every agent that ingests c-struct
/// payloads. The agent supplies its [`Compactor`], its inboxes and its
/// truncation rule; the resolve / retry / reply protocol is provided.
pub(crate) trait Receiver<C: CStruct>: Sized {
    /// The agent's compaction state.
    fn compactor(&mut self) -> &mut Compactor<C>;

    /// Applies every pending stable segment the agent's primary value
    /// covers *now* and brings its side state, inboxes included, to the
    /// new watermark ([`Inbox::follow`]); returns whether the watermark
    /// moved. (Learners compact only at the start of an upcall, so theirs
    /// never moves mid-upcall.)
    fn realign(&mut self, ctx: &mut dyn Context<Msg<C>>) -> bool;

    /// Asks `to` for the stable segments above the local watermark.
    fn need_stable(&mut self, to: ProcessId, ctx: &mut dyn Context<Msg<C>>) {
        let from = self.compactor().watermark();
        ctx.send(to, Msg::NeedStable { from });
    }

    /// Resolves a payload that has no base here, a full value, at the
    /// local watermark, retrying once after compaction. `None` means the
    /// message is dropped, after asking the sender for the missing stable
    /// segments when it is ahead of us and none is pending at our
    /// watermark, or for its full value when the payload was a delta.
    fn resolve_full(
        &mut self,
        from: ProcessId,
        round: Round,
        payload: Payload<C>,
        ctx: &mut dyn Context<Msg<C>>,
    ) -> Option<Arc<C>> {
        let Payload::Full(mut v) = payload else {
            ctx.send(from, Msg::NeedFull { round });
            return None;
        };
        // Maybe a pending segment unlocks the mismatch.
        if self.compactor().normalize_arc(&mut v)
            || self.realign(ctx) && self.compactor().normalize_arc(&mut v)
        {
            return Some(v);
        }
        let comp = self.compactor();
        if v.watermark() > comp.watermark() && comp.gap_at_watermark() {
            self.need_stable(from, ctx);
        }
        None
    }

    /// Resolves `from`'s payload for `round` and stores the result in
    /// `inbox` as that sender's last value. A delta extends the sender's
    /// value taken out of the inbox (or the one kept aside for it), in
    /// place unless something else still shares it; on a gap the stored
    /// value goes back untouched and the sender is asked for its full
    /// value. A full value is resolved by [`Self::resolve_full`]. `None`
    /// means the message is dropped.
    fn ingest(
        &mut self,
        inbox: fn(&mut Self) -> &mut Inbox<C>,
        from: ProcessId,
        round: Round,
        payload: Payload<C>,
        ctx: &mut dyn Context<Msg<C>>,
    ) -> Option<Ingested<C>> {
        let (val, changed, grew) = match payload {
            Payload::Delta {
                base_len,
                digest,
                suffix,
            } => {
                let w = self.compactor().watermark();
                let Some((mut base, stored)) = inbox(self).take_base(round, from) else {
                    inbox(self).need_full(from, round, w, ctx);
                    return None;
                };
                let held = Arc::as_ptr(&base);
                let Some(changed) = self
                    .compactor()
                    .apply_delta(base_len, digest, &suffix, &mut base)
                else {
                    if stored {
                        inbox(self).insert(round, from, base);
                    }
                    inbox(self).need_full(from, round, w, ctx);
                    return None;
                };
                if Arc::as_ptr(&base) != held {
                    ctx.metric(Metric::incr(metrics::BASE_COPIES));
                }
                // A delta appends to the stored value, or resolves one kept
                // aside: it grew exactly when it changed.
                (base, changed, changed)
            }
            Payload::Full(v) => {
                // A full value (a restarted sender ships one first)
                // supersedes the one kept aside.
                inbox(self).behind.remove(&from);
                let sent_at = v.watermark();
                let Some(v) = self.resolve_full(from, round, Payload::Full(v), ctx) else {
                    let w = self.compactor().watermark();
                    if sent_at > w {
                        inbox(self).ahead.insert(from, w);
                    }
                    return None;
                };
                inbox(self).ahead.remove(&from);
                let prev = inbox(self).round(round).and_then(|m| m.get(&from));
                let changed = prev.is_none_or(|b| b.watermark() != v.watermark() || **b != *v);
                let grew = prev.is_none_or(|b| v.count() > b.count());
                (v, changed, grew)
            }
        };
        inbox(self).insert(round, from, val.clone());
        Some(Ingested { val, changed, grew })
    }

    /// Handles [`Msg::Stable`]: buffers the segment and applies what can
    /// apply. Still short of the announced frontier with nothing buffered
    /// at our watermark means a segment in between was missed — request
    /// the gap from the sender (the designated learner).
    fn on_stable(
        &mut self,
        from: ProcessId,
        seg_from: u64,
        cmds: Vec<C::Cmd>,
        ctx: &mut dyn Context<Msg<C>>,
    ) {
        self.compactor().offer(seg_from, cmds);
        self.realign(ctx);
        let comp = self.compactor();
        if seg_from > comp.watermark() && comp.gap_at_watermark() {
            self.need_stable(from, ctx);
        }
    }

    /// Handles [`Msg::NeedStable`]: re-sends the retained run of segments
    /// that starts at the requester's watermark, if any.
    fn on_need_stable(&mut self, from: ProcessId, want: u64, ctx: &mut dyn Context<Msg<C>>) {
        for (f, seg) in self.compactor().recent_from(want) {
            ctx.send(from, Msg::Stable { from: f, cmds: seg });
        }
    }
}

#[cfg(test)]
mod tests {
    //! The two halves wired back to back, no agents involved.
    use super::*;
    use crate::testctx::{h, H, K};
    use mcpaxos_actor::host::Recorder;

    type Ctx = Recorder<Msg<H>>;

    const SENDER: ProcessId = ProcessId(4);
    const PEER: ProcessId = ProcessId(9);
    const R: Round = Round::new(0, 1, 0, crate::schedule::RTYPE_MULTI);

    fn shipper(wire: WireConfig) -> Shipper<H> {
        Shipper::new(&wire, |round, val| Msg::P2b { round, val })
    }

    /// Delta shipping on: a sender, its peer and the sender's context.
    fn pair() -> (Shipper<H>, Peer, Ctx) {
        let out = shipper(WireConfig::bounded(64));
        (out, Peer::new(), Ctx::new(SENDER.raw()))
    }

    /// A bare receiver half: keeps the sender's values in one inbox.
    struct Peer {
        comp: Compactor<H>,
        inbox: Inbox<H>,
    }

    impl Receiver<H> for Peer {
        fn compactor(&mut self) -> &mut Compactor<H> {
            &mut self.comp
        }
        fn realign(&mut self, _ctx: &mut dyn Context<Msg<H>>) -> bool {
            false
        }
    }

    impl Peer {
        fn new() -> Self {
            Peer {
                comp: Compactor::default(),
                inbox: Inbox::default(),
            }
        }

        /// The sender's last value resolved here.
        fn last(&self) -> Option<&H> {
            self.inbox.round(R)?.get(&SENDER).map(|v| v.as_ref())
        }

        /// Applies the stable segment at our watermark to a primary value
        /// equal to the sender's last one, and lets the inbox follow, as
        /// an agent's `realign` does.
        fn truncate(&mut self, seg: Vec<K>) {
            self.comp.offer(self.comp.watermark(), seg);
            let mut primary = self.last().expect("a value to truncate").clone();
            assert_eq!(self.comp.advance(&mut primary, |_| {}), 1);
            self.inbox.follow(&self.comp);
        }

        /// Ingests the "2b" in `cx.sent` (clearing it); returns the replies.
        fn receive(&mut self, cx: &mut Ctx) -> Vec<Msg<H>> {
            let mut replies = Ctx::new(PEER.raw());
            for (to, msg) in cx.sent.drain(..) {
                assert_eq!(to, PEER);
                let Msg::P2b { round, val } = msg else {
                    panic!("unexpected {msg:?}")
                };
                self.ingest(|p| &mut p.inbox, SENDER, round, val, &mut replies);
            }
            replies.sent.into_iter().map(|(_, m)| m).collect()
        }
    }

    fn sent_delta(cx: &Ctx) -> bool {
        matches!(&cx.sent[..], [(_, Msg::P2b { val, .. })] if val.is_delta())
    }

    /// The commands of `h` at positions `from..to`.
    fn seg(from: u16, to: u16) -> Vec<K> {
        (from..to).map(|i| K(i % 4, i)).collect()
    }

    /// `h(n)` with the stable prefix `0..w` truncated.
    fn h_at(n: u16, w: u16) -> H {
        let mut v = h(n);
        assert!(v.truncate_stable(&seg(0, w)));
        v
    }

    #[test]
    fn deltas_shipped_before_the_sender_truncated_resolve_in_its_frame() {
        let (mut out, mut peer, mut cx) = pair();
        out.ship(&[PEER], R, &Arc::new(h(8)), &mut cx);
        assert!(peer.receive(&mut cx).is_empty());
        // The sender, still at watermark 0, ships 8→10; the peer truncates
        // the stable segment 0..4 before it lands.
        out.ship(&[PEER], R, &Arc::new(h(10)), &mut cx);
        assert!(sent_delta(&cx));
        peer.truncate(seg(0, 4));
        assert!(peer.receive(&mut cx).is_empty(), "no NeedFull");
        assert_eq!(peer.last(), Some(&h_at(10, 4)));
        // The sender truncates to 4 and ships 10→12; the peer has reached
        // 8 before it lands.
        out.ship(&[PEER], R, &Arc::new(h_at(12, 4)), &mut cx);
        assert!(sent_delta(&cx));
        peer.truncate(seg(4, 8));
        assert!(peer.receive(&mut cx).is_empty(), "no NeedFull");
        assert_eq!(peer.last(), Some(&h_at(12, 8)));
        // Both at 8: the next delta resolves as usual.
        out.ship(&[PEER], R, &Arc::new(h_at(13, 8)), &mut cx);
        assert!(peer.receive(&mut cx).is_empty());
        assert_eq!(peer.last(), Some(&h_at(13, 8)));
        assert_eq!(cx.metric_count(metrics::FULL_RESYNCS), 0);
    }

    #[test]
    fn a_delta_from_a_sender_that_truncated_as_far_resolves_in_the_local_frame() {
        let (mut out, mut peer, mut cx) = pair();
        out.ship(&[PEER], R, &Arc::new(h(8)), &mut cx);
        assert!(peer.receive(&mut cx).is_empty());
        // The peer truncates 0..4; the sender then truncates as far and
        // ships 8→10 at watermark 4.
        peer.truncate(seg(0, 4));
        out.ship(&[PEER], R, &Arc::new(h_at(10, 4)), &mut cx);
        let Some((_, Msg::P2b { val, .. })) = cx.sent.first() else {
            panic!("one 2b")
        };
        let Payload::Delta {
            base_len,
            digest,
            suffix,
        } = val
        else {
            panic!("a delta")
        };
        // The local base alone resolves it.
        let mut local = Arc::new(peer.last().expect("a base").clone());
        let changed = peer
            .comp
            .apply_delta(*base_len, *digest, suffix, &mut local);
        assert_eq!((changed, &*local), (Some(true), &h_at(10, 4)));
        assert!(peer.receive(&mut cx).is_empty(), "no NeedFull");
        assert_eq!(peer.last(), Some(&h_at(10, 4)));
    }

    #[test]
    fn a_delta_shipped_after_the_sender_truncated_resolves_at_a_receiver_that_has_not() {
        let (mut out, mut peer, mut cx) = pair();
        out.ship(&[PEER], R, &Arc::new(h(8)), &mut cx);
        assert!(peer.receive(&mut cx).is_empty());
        // The sender truncates the stable segment 0..4 and ships 8→10; the
        // peer has not applied that segment when the delta lands.
        out.ship(&[PEER], R, &Arc::new(h_at(10, 4)), &mut cx);
        assert!(sent_delta(&cx));
        assert!(peer.receive(&mut cx).is_empty(), "no NeedFull");
        assert_eq!(peer.comp.watermark(), 0);
        assert_eq!(peer.last(), Some(&h(10)));
        // Truncating later brings it to the sender's value and digest.
        peer.truncate(seg(0, 4));
        assert_eq!(peer.last(), Some(&h_at(10, 4)));
        assert_eq!(peer.last().map(|v| v.digest()), Some(h_at(10, 4).digest()));
        assert_eq!(cx.metric_count(metrics::FULL_RESYNCS), 0);
    }

    /// A pair whose peer truncated the segment 0..4 past the sender's
    /// last value h(2), which it keeps aside.
    fn kept_aside() -> (Shipper<H>, Peer, Ctx) {
        let (mut out, mut peer, mut cx) = pair();
        out.ship(&[PEER], R, &Arc::new(h(2)), &mut cx);
        assert!(peer.receive(&mut cx).is_empty());
        peer.comp.offer(0, seg(0, 4));
        assert_eq!(peer.comp.advance(&mut h(6), |_| {}), 1);
        peer.inbox.follow(&peer.comp);
        assert_eq!(peer.last(), None, "kept aside");
        (out, peer, cx)
    }

    #[test]
    fn a_base_that_cannot_follow_a_truncation_still_takes_the_next_delta() {
        let (mut out, mut peer, mut cx) = kept_aside();
        // The sender catches up past the segment and ships 2→6.
        out.ship(&[PEER], R, &Arc::new(h(6)), &mut cx);
        assert!(sent_delta(&cx));
        assert!(peer.receive(&mut cx).is_empty(), "no NeedFull");
        assert_eq!(peer.last(), Some(&h_at(6, 4)));
    }

    #[test]
    fn a_full_value_takes_out_the_base_kept_aside() {
        let (mut out, mut peer, mut cx) = kept_aside();
        // The sender restarted: it ships its value in full.
        out.reset(PEER, &mut cx);
        out.ship(&[PEER], R, &Arc::new(h(6)), &mut cx);
        assert!(!sent_delta(&cx));
        assert!(peer.receive(&mut cx).is_empty());
        assert_eq!(peer.last(), Some(&h_at(6, 4)));
        assert!(peer.inbox.behind.is_empty());
    }

    #[test]
    fn a_rejected_delta_leaves_the_stored_base_as_it_was() {
        let (mut out, mut peer, mut cx) = pair();
        out.ship(&[PEER], R, &Arc::new(h(4)), &mut cx);
        assert!(peer.receive(&mut cx).is_empty());
        // A delta appending 4..6 whose digest is not its result's.
        let val = Payload::Delta {
            base_len: 4,
            digest: h(6).digest() ^ 1,
            suffix: seg(4, 6),
        };
        cx.send(PEER, Msg::P2b { round: R, val });
        assert_eq!(peer.receive(&mut cx), vec![Msg::NeedFull { round: R }]);
        assert_eq!(peer.last(), Some(&h(4)));
        // A delta valid against the stored h(4) still resolves.
        let val = Payload::Delta {
            base_len: 4,
            digest: h(5).digest(),
            suffix: seg(4, 5),
        };
        cx.send(PEER, Msg::P2b { round: R, val });
        assert!(peer.receive(&mut cx).is_empty(), "no second NeedFull");
        assert_eq!(peer.last(), Some(&h(5)));
    }

    /// Delivers one "2b" from the sender carrying `val`; returns the
    /// replies.
    fn deliver(peer: &mut Peer, val: Payload<H>) -> Vec<Msg<H>> {
        let mut cx = Ctx::new(SENDER.raw());
        cx.send(PEER, Msg::P2b { round: R, val });
        peer.receive(&mut cx)
    }

    /// The sender's value h(8) at watermark 4: ahead of a fresh peer.
    fn ahead() -> Payload<H> {
        Payload::full(h_at(8, 4))
    }

    /// A delta extending the sender's h(8) by one command.
    fn next_delta() -> Payload<H> {
        Payload::Delta {
            base_len: 8,
            digest: h_at(9, 4).digest(),
            suffix: seg(8, 9),
        }
    }

    const NEED_FULL: Msg<H> = Msg::NeedFull { round: R };

    #[test]
    fn a_full_value_ahead_asks_for_segments_only_when_one_is_missing() {
        // Nothing is pending at watermark 0: the segment 0..4 is missing.
        let mut peer = Peer::new();
        assert_eq!(deliver(&mut peer, ahead()), [Msg::NeedStable { from: 0 }]);
        // With it pending, what is missing is a value that covers it.
        let mut peer = Peer::new();
        peer.comp.offer(0, seg(0, 4));
        assert_eq!(deliver(&mut peer, ahead()), []);
        assert_eq!(peer.comp.watermark(), 0);
    }

    #[test]
    fn after_a_full_value_ahead_deltas_ask_for_it_again_only_after_a_hello() {
        let mut peer = Peer::new();
        deliver(&mut peer, ahead());
        for _ in 0..3 {
            assert_eq!(deliver(&mut peer, next_delta()), [], "no NeedFull");
        }
        // The sender restarted (`Hello`): its next delta asks once.
        peer.inbox.reset(SENDER);
        assert_eq!(deliver(&mut peer, next_delta()), [NEED_FULL]);
    }

    #[test]
    fn after_a_full_value_ahead_deltas_ask_for_it_again_once_the_watermark_moves() {
        let mut peer = Peer::new();
        deliver(&mut peer, ahead());
        assert_eq!(deliver(&mut peer, next_delta()), []);
        peer.comp.offer(0, seg(0, 4));
        assert_eq!(peer.comp.advance(&mut h(4), |_| {}), 1);
        assert_eq!(deliver(&mut peer, next_delta()), [NEED_FULL]);
        // Now the answer resolves, and so does the next delta.
        assert_eq!(deliver(&mut peer, ahead()), []);
        assert_eq!(deliver(&mut peer, next_delta()), []);
        assert_eq!(peer.last(), Some(&h_at(9, 4)));
    }

    #[test]
    fn a_full_value_that_resolves_lets_the_next_gap_ask_again() {
        let mut peer = Peer::new();
        deliver(&mut peer, ahead());
        // A full value at the peer's watermark resolves; a delta that
        // does not extend it then asks, at the same watermark.
        assert_eq!(deliver(&mut peer, Payload::full(h(6))), []);
        assert_eq!(deliver(&mut peer, next_delta()), [NEED_FULL]);
    }

    #[test]
    fn need_stable_gets_the_retained_run_from_want_or_nothing() {
        let mut peer = Peer::new();
        for w in (0..20).step_by(2) {
            peer.comp.offer(w, seg(w as u16, w as u16 + 2));
        }
        assert_eq!(peer.comp.advance_free(|_| {}), 10);
        let answer = |peer: &mut Peer, want| {
            let mut cx = Ctx::new(PEER.raw());
            peer.on_need_stable(SENDER, want, &mut cx);
            cx.sent.into_iter().map(|(_, m)| m).collect::<Vec<_>>()
        };
        let stable = |w: u16| Msg::Stable {
            from: w.into(),
            cmds: seg(w, w + 2),
        };
        assert_eq!(answer(&mut peer, 16), [stable(16), stable(18)]);
        // 0..4 left the retained window: 4.. cannot connect to 0 or 2.
        assert_eq!(answer(&mut peer, 0), []);
        assert_eq!(answer(&mut peer, 2), []);
        assert_eq!(answer(&mut peer, 20), []);
    }

    #[test]
    fn equal_length_values_diverging_in_one_command_digest_differently() {
        for w in [0, 4] {
            let base = h_at(12, w);
            for i in 0..base.live_len() {
                let mut cmds = base.as_slice().to_vec();
                cmds[i].1 += 1_000;
                let mut other = h_at(w, w);
                other.append_all(cmds);
                assert_eq!(other.total_len(), base.total_len());
                assert_ne!(other.digest(), base.digest(), "w {w}, i {i}");
            }
        }
    }

    #[test]
    fn a_divergent_equal_length_sender_frame_copy_still_gaps() {
        let (mut out, mut peer, mut cx) = pair();
        // The peer's copy has the sender's length but diverges at
        // position 7 (the post-crash rollback shape).
        let mut divergent = h(7);
        divergent.append(K(0, 99));
        out.ship(&[PEER], R, &Arc::new(divergent), &mut cx);
        assert!(peer.receive(&mut cx).is_empty());
        // The sender's delta 8→10 extends h(8); the peer truncates 0..4
        // while it is in flight. The digest does not authenticate the base.
        out.ship(&[PEER], R, &Arc::new(h(10)), &mut cx);
        assert!(sent_delta(&cx));
        peer.truncate(seg(0, 4));
        assert_eq!(peer.receive(&mut cx), vec![Msg::NeedFull { round: R }]);
    }

    #[test]
    fn dropped_delta_resyncs_once_and_deltas_resume() {
        let (mut out, mut peer, mut cx) = pair();
        out.ship(&[PEER], R, &Arc::new(h(4)), &mut cx);
        assert!(!sent_delta(&cx), "no base yet: full");
        assert!(peer.receive(&mut cx).is_empty());
        // The delta 4→6 is lost; the next one (6→8) finds a base of 4.
        out.ship(&[PEER], R, &Arc::new(h(6)), &mut cx);
        assert!(sent_delta(&cx));
        cx.sent.clear();
        let v8 = Arc::new(h(8));
        out.ship(&[PEER], R, &v8, &mut cx);
        assert_eq!(peer.receive(&mut cx), vec![Msg::NeedFull { round: R }]);
        // The answer is the full value, counted once, and ends the exchange:
        // the peer is re-based, so the next delta resolves to a value.
        out.resync(PEER, R, R, Some(&v8), &mut cx);
        assert_eq!(cx.metric_count(metrics::FULL_RESYNCS), 1);
        assert!(!sent_delta(&cx));
        assert!(peer.receive(&mut cx).is_empty());
        out.ship(&[PEER], R, &Arc::new(h(9)), &mut cx);
        assert!(sent_delta(&cx));
        assert!(peer.receive(&mut cx).is_empty());
        assert_eq!(peer.last(), Some(&h(9)));
        // A `NeedFull` for a round the sender has left only drops the base.
        out.resync(PEER, R, Round::ZERO, Some(&v8), &mut cx);
        assert!(cx.sent.is_empty());
        assert_eq!(cx.metric_count(metrics::FULL_RESYNCS), 1);
    }

    #[test]
    fn hello_or_link_reset_makes_the_next_send_full_with_no_needfull() {
        let (mut out, mut peer, mut cx) = pair();
        out.ship(&[PEER], R, &Arc::new(h(4)), &mut cx);
        peer.receive(&mut cx);
        // The peer restarts: its copy of our value is gone. It says Hello.
        peer.inbox = Inbox::default();
        out.reset(PEER, &mut cx);
        out.reset(PEER, &mut cx); // idempotent: nothing left to drop
        assert_eq!(cx.metric_count(metrics::BASE_RESETS), 1);
        out.ship(&[PEER], R, &Arc::new(h(6)), &mut cx);
        assert!(!sent_delta(&cx));
        assert!(peer.receive(&mut cx).is_empty(), "no NeedFull round-trip");
        assert_eq!(peer.last(), Some(&h(6)));
        assert_eq!(cx.metric_count(metrics::DELTA_SENDS), 0);
    }

    #[test]
    fn delta_off_ships_full_in_multicast_order() {
        let (learners, coords, gossip) = (
            [ProcessId(9), ProcessId(10)],
            [ProcessId(1), ProcessId(2), ProcessId(3)],
            [ProcessId(5)],
        );
        let val = Arc::new(h(3));
        // Three multicasts of one shared full payload, in this order.
        let mut want = Ctx::new(SENDER.raw());
        let msg = Msg::P2b {
            round: R,
            val: Payload::Full(val.clone()),
        };
        want.multicast(&learners, msg.clone());
        want.multicast(&coords, msg.clone());
        want.multicast(&gossip, msg);
        let mut got = Ctx::new(SENDER.raw());
        let mut out = shipper(WireConfig::default());
        let targets = [&learners[..], &coords, &gossip].concat();
        for _ in 0..2 {
            out.ship(&targets, R, &val, &mut got);
        }
        want.sent.extend(want.sent.clone());
        assert_eq!(got.sent, want.sent);
        // No bases are kept, so a Hello has nothing to reset ...
        out.reset(learners[0], &mut got);
        assert!(got.metrics.is_empty(), "{:?}", got.metrics);
        // ... and a stray `NeedFull` is answered but establishes none.
        got.sent.clear();
        out.resync(PEER, R, R, Some(&val), &mut got);
        out.ship(&[PEER], R, &Arc::new(h(5)), &mut got);
        assert!(got
            .sent
            .iter()
            .all(|(_, m)| matches!(m, Msg::P2b { val, .. } if !val.is_delta())));
        assert_eq!(got.metric_count(metrics::DELTA_SENDS), 0);
    }
}
