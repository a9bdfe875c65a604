//! The serving engine: one peer's side of the protocol (§IV), with no
//! clock, socket, thread or event sink.
//!
//! [`Host`] owns the [`Peer`], its [`ServePass`], a staging buffer and the
//! adversary's decision state per connection. A driver hands it each
//! datagram ([`on_datagram`](Host::on_datagram)) and runs its serve pass
//! ([`pass`](Host::pass)), deciding only three inputs: where the budget
//! comes from, what a connection's headroom is, and what becomes of the
//! overflow. The [`rt`](crate::rt) reactor drains its token bucket into
//! every pass, counts headroom as `window_frames − queued` and refunds the
//! overflow; [`SimRuntime`](crate::SimRuntime) grants a slot of the
//! simulated uplink at each slot boundary (nothing at the re-passes a
//! completed flow triggers), counts `2 − flows in flight` and drops it.
//!
//! A Byzantine strategy of the installed fault plan (§11) is a behaviour
//! of the node, so it is applied here, once, to what a pass staged
//! ([`tamper`]); the transports below realise link faults only. Its unit
//! is the driver's datagram: a sim flow carries one frame, an rt datagram
//! up to [`MAX_COALESCE`](crate::rt::MAX_COALESCE).

use crate::peer::Peer;
use crate::protocol::Wire;
use crate::serve::{self, bank_cap, ServePass};
use asymshare_crypto::chacha20::ChaChaRng;
use asymshare_netsim::{adversary_draw, AdversaryStrategy, FaultPlan, NodeId};
use asymshare_rlnc::EncodedMessage;
use std::collections::HashMap;

/// A strategy and the plan seed its decisions hash from.
pub(crate) type Adversary = (AdversaryStrategy, u64);

/// The strategy `plan` assigns to `node`.
pub(crate) fn adversary(plan: &FaultPlan, node: NodeId) -> Option<Adversary> {
    Some((plan.adversary_for(node)?, plan.seed()))
}

/// One connection's row of a pass: its Eq.-2 weight, its share of the
/// budget and the bytes of it granted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Grant {
    pub conn: u64,
    pub weight: f64,
    pub share: f64,
    pub bytes: f64,
}

#[derive(Debug, Default)]
struct Egress {
    staged: Vec<Wire>,
    /// The adversary's decisions so far, whether it withholds until the
    /// next grant, and the last frame that left (a replay's stale copy).
    seq: u64,
    withholding: bool,
    last: Option<EncodedMessage>,
}

/// One serving peer as a sans-IO engine (see module docs).
#[derive(Debug)]
pub(crate) struct Host {
    pub peer: Peer,
    serve: ServePass,
    egress: HashMap<u64, Egress>,
    adversary: Option<Adversary>,
    /// Frames the driver puts in one datagram.
    datagram: usize,
    /// Pass scratch, reused so a steady-state pass allocates nothing.
    active: Vec<u64>,
    weights: Vec<f64>,
}

impl Host {
    /// A host for `peer` whose driver sends up to `datagram` frames in a
    /// datagram.
    pub(crate) fn new(peer: Peer, datagram: usize) -> Host {
        Host {
            peer,
            serve: ServePass::default(),
            egress: HashMap::new(),
            adversary: None,
            datagram,
            active: Vec::new(),
            weights: Vec::new(),
        }
    }

    /// The Byzantine strategy applied from the next pass on (`None`: honest).
    pub(crate) fn set_adversary(&mut self, adversary: Option<Adversary>) {
        self.adversary = adversary;
    }

    /// Takes one datagram's frames from `conn`, appending the peer's
    /// replies. A protocol error drops the session.
    pub(crate) fn on_datagram(
        &mut self,
        conn: u64,
        frames: impl IntoIterator<Item = Wire>,
        rng: &mut ChaChaRng,
        replies: &mut Vec<Wire>,
    ) {
        for wire in frames {
            match self.peer.on_message(conn, wire, rng) {
                Ok(out) => replies.extend(out),
                Err(_) => self.disconnect(conn),
            }
        }
    }

    /// Drops `conn`'s session and staging.
    pub(crate) fn disconnect(&mut self, conn: u64) {
        self.peer.disconnect(conn);
        self.egress.remove(&conn);
    }

    /// One serve pass: grants `budget` to the serving connections by Eq.-2
    /// weight, each banking under [`bank_cap`] of the `burst` the driver
    /// hands over at most, and stages frames on each while its deficit
    /// covers the next and `headroom(conn)` allows. Appends a [`Grant`]
    /// per connection to `out`, leaves the frames in
    /// [`staged`](Host::staged), and returns the overflow: what the
    /// connections may not keep, departed ones' banks included.
    pub(crate) fn pass(
        &mut self,
        budget: f64,
        burst: f64,
        mut headroom: impl FnMut(u64) -> u32,
        out: &mut Vec<Grant>,
    ) -> f64 {
        let Host {
            peer,
            serve,
            egress,
            adversary,
            datagram,
            active,
            weights,
        } = self;
        active.clear();
        active.extend(peer.active_conns());
        weights.clear();
        weights.extend(active.iter().map(|&c| {
            peer.session_user(c)
                .map_or(0.0, |key| peer.upload_weight(&key))
        }));
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            return budget;
        }
        let mut overflow = 0.0;
        for (&conn, &weight) in active.iter().zip(weights.iter()) {
            let mut len = peer.next_message_len(conn).expect("an active connection");
            let share = serve::share(weight, total);
            let bytes = budget * share;
            overflow += serve.grant(conn, bytes, bank_cap(burst, share, len as f64));
            let room = headroom(conn) as usize;
            let e = egress.entry(conn).or_default();
            let from = e.staged.len();
            while e.staged.len() - from < room && serve.try_send(conn, len as f64) {
                let msg = peer.next_message(conn).expect("its length was just read");
                e.staged.push(Wire::MessageData(msg));
                match peer.next_message_len(conn) {
                    Some(next) => len = next,
                    None => break,
                }
            }
            if let Some(adversary) = *adversary {
                tamper(adversary, conn, e, from, *datagram, bytes > 0.0);
            }
            out.push(Grant {
                conn,
                weight,
                share,
                bytes,
            });
        }
        // A connection out of the scheduling set (stock exhausted, stopped,
        // dropped) has no claim: its bank is idle capacity (Theorem 1).
        overflow + serve.retain(|conn| active.binary_search(&conn).is_ok())
    }

    /// The frames staged for `conn` and not yet taken by the driver.
    pub(crate) fn staged(&mut self, conn: u64) -> &mut Vec<Wire> {
        &mut self.egress.entry(conn).or_default().staged
    }
}

/// The node's Byzantine strategy, applied to what a pass staged for `conn`
/// (`e.staged[from..]`, sent `datagram` frames at a time; `granted` when
/// the pass granted it budget).
/// Decisions hash off the plan's seed and the message id or the
/// connection's decision count, never a shared stream, so an adversary
/// shifts no honest fault; and nothing is reported.
///
/// - `SelectiveServe`: at each grant, with probability `1 −
///   serve_fraction`, withhold what is staged until the next (a sim slot,
///   an rt pass); withheld frames were debited, so its share idles.
/// - `Pollute`: a datagram whose first frame's id draws under `prob`
///   leaves with that frame's payload bit flipped ([`corrupt_message`]);
///   only the digest can tell.
/// - `Replay`: with probability `prob`, a frame is replaced by the last
///   one that left — authentic bytes that buy no rank.
fn tamper(
    (strategy, seed): Adversary,
    conn: u64,
    e: &mut Egress,
    from: usize,
    datagram: usize,
    granted: bool,
) {
    let draw = |seq: &mut u64| {
        *seq += 1;
        adversary_draw(seed, conn.wrapping_mul(0x9E37_79B9).wrapping_add(*seq))
    };
    match strategy {
        AdversaryStrategy::SelectiveServe { serve_fraction } => {
            if granted {
                e.withholding = draw(&mut e.seq) >= serve_fraction;
            }
            if e.withholding {
                e.staged.truncate(from);
            }
        }
        AdversaryStrategy::Pollute { prob } => {
            for frame in e.staged[from..].chunks_mut(datagram).map(|d| &mut d[0]) {
                if let Wire::MessageData(msg) = frame {
                    if adversary_draw(seed, msg.message_id().0) < prob {
                        if let Some(polluted) = corrupt_message(msg) {
                            *frame = polluted;
                        }
                    }
                }
            }
        }
        AdversaryStrategy::Replay { prob } => {
            for frame in &mut e.staged[from..] {
                if let Wire::MessageData(msg) = frame {
                    match &e.last {
                        Some(stale) if draw(&mut e.seq) < prob => *msg = stale.clone(),
                        _ => e.last = Some(msg.clone()),
                    }
                }
            }
        }
    }
}

/// Flips one payload bit of a data message, at a position keyed off the
/// message id so seeded runs replay identically: a polluter's tamper, and
/// the sim's corrupted flow. `None` for an empty payload.
pub(crate) fn corrupt_message(msg: &EncodedMessage) -> Option<Wire> {
    let mut payload = msg.payload().to_vec();
    if payload.is_empty() {
        return None;
    }
    let at = (msg.message_id().0 as usize).wrapping_mul(7919) % payload.len();
    payload[at] ^= 1;
    Some(Wire::MessageData(EncodedMessage::new(
        msg.file_id(),
        msg.message_id(),
        payload,
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::identity::Identity;
    use crate::rt::TokenBucket;
    use crate::session::Prover;
    use asymshare_rlnc::{FileId, MessageId};
    use proptest::prelude::*;
    use std::time::{Duration, Instant};

    fn rng() -> ChaChaRng {
        ChaChaRng::new([0x48; 32], *b"host-tests!!")
    }

    /// Frames in one of the tests' datagrams.
    const DATAGRAM: usize = 4;

    fn user(i: usize) -> Identity {
        Identity::from_seed(&[b'H', b'U', i as u8])
    }

    /// Stores `payloads.len()` messages of `file` on `peer`, four to a
    /// chunk, with the given payload lengths.
    fn stock(peer: &mut Peer, file: u64, payloads: &[usize]) {
        for (i, &len) in payloads.iter().enumerate() {
            let id = MessageId(((i / 4) as u64) << 32 | (i % 4) as u64);
            let payload = vec![(i % 251) as u8; len];
            peer.store_mut()
                .insert(EncodedMessage::new(FileId(file), id, payload));
        }
    }

    /// Runs `user`'s side of the handshake on `conn` through the host.
    fn authenticate(host: &mut Host, conn: u64, user: &Identity, rng: &mut ChaChaRng) {
        let mut prover = Prover::new(user.auth_keys().clone());
        let mut replies = Vec::new();
        host.on_datagram(conn, [prover.start(rng)], rng, &mut replies);
        let response = prover.on_challenge(&replies.remove(0)).unwrap();
        host.on_datagram(conn, [response], rng, &mut replies);
        assert!(matches!(replies[..], [Wire::AuthResult { ok: true, .. }]));
    }

    /// A host whose peer (no initial credit) has authenticated user `i`
    /// on connection `i` at `credit[i]` bytes of credit, and holds file
    /// `10 + i` for it with `payloads` as its messages' lengths.
    fn hosting(credit: &[f64], payloads: &[usize], rng: &mut ChaChaRng) -> Host {
        let mut peer = Peer::new(Identity::from_seed(b"host-peer"), 0.0);
        for (i, &bytes) in credit.iter().enumerate() {
            let key = user(i).public_key().to_bytes();
            peer.add_subscriber(key);
            peer.credit_direct(key, bytes);
            stock(&mut peer, 10 + i as u64, payloads);
        }
        let mut host = Host::new(peer, DATAGRAM);
        for i in 0..credit.len() {
            authenticate(&mut host, i as u64, &user(i), rng);
        }
        host
    }

    fn request(host: &mut Host, conn: u64, rng: &mut ChaChaRng) {
        let mut replies = Vec::new();
        let file_id = 10 + conn;
        host.on_datagram(conn, [Wire::FileRequest { file_id }], rng, &mut replies);
        assert!(replies.is_empty());
    }

    /// One pass with budget to spare and room for `room` frames per
    /// connection; the frames it staged on `conn`.
    fn pass(host: &mut Host, room: u32, conn: u64) -> Vec<Wire> {
        let mut grants = Vec::new();
        host.pass(1e6, 1e6, |_| room, &mut grants);
        std::mem::take(host.staged(conn))
    }

    fn stored(host: &Host, conn: u64) -> Vec<EncodedMessage> {
        host.peer.store().messages(FileId(10 + conn)).to_vec()
    }

    #[test]
    fn a_protocol_error_drops_the_session() {
        let mut rng = rng();
        let mut host = hosting(&[1.0, 1.0], &[64; 8], &mut rng);
        let mut replies = Vec::new();
        // A request for a file the peer does not hold is one.
        host.on_datagram(
            0,
            [Wire::FileRequest { file_id: 99 }],
            &mut rng,
            &mut replies,
        );
        assert!(!host.peer.is_authenticated(0));
        request(&mut host, 1, &mut rng);
        assert_eq!(
            pass(&mut host, 64, 1).len(),
            8,
            "the other session is served"
        );
        host.on_datagram(
            1,
            [Wire::AuthResponse { s: [0; 32] }],
            &mut rng,
            &mut replies,
        );
        assert!(!host.peer.is_authenticated(1));
        assert!(replies.is_empty());
    }

    #[test]
    fn adversary_pollute_flips_payload_bits_silently() {
        let mut rng = rng();
        let mut host = hosting(&[1.0], &[48; 8], &mut rng);
        host.set_adversary(Some((AdversaryStrategy::Pollute { prob: 1.0 }, 7)));
        request(&mut host, 0, &mut rng);
        let sent = pass(&mut host, 64, 0);
        assert_eq!(sent.len(), 8);
        for (i, (wire, original)) in sent.iter().zip(stored(&host, 0)).enumerate() {
            let Wire::MessageData(got) = wire else {
                panic!("still a data frame");
            };
            assert_eq!(got.message_id(), original.message_id(), "framing intact");
            let flipped: u32 = got
                .payload()
                .iter()
                .zip(original.payload())
                .map(|(a, b)| (a ^ b).count_ones())
                .sum();
            let first = i % DATAGRAM == 0;
            assert_eq!(
                flipped,
                u32::from(first),
                "one bit of each datagram's first frame"
            );
        }
        // Control replies pass unharmed: a fresh handshake still succeeds.
        authenticate(&mut host, 5, &user(0), &mut rng);
    }

    #[test]
    fn adversary_replay_re_serves_the_last_frame() {
        let mut rng = rng();
        let mut host = hosting(&[1.0], &[32; 8], &mut rng);
        host.set_adversary(Some((AdversaryStrategy::Replay { prob: 1.0 }, 3)));
        request(&mut host, 0, &mut rng);
        let first = stored(&host, 0).remove(0);
        let sent = pass(&mut host, 64, 0);
        assert_eq!(sent.len(), 8, "the uplink is spent on every frame");
        for wire in &sent {
            assert_eq!(wire, &Wire::MessageData(first.clone()), "stale bytes");
        }
        // Lifted, the node serves fresh messages again.
        request(&mut host, 0, &mut rng);
        host.set_adversary(None);
        let fresh: Vec<Wire> = stored(&host, 0)
            .into_iter()
            .map(Wire::MessageData)
            .collect();
        let mut sent = pass(&mut host, 64, 0);
        sent.sort_by_key(|w| match w {
            Wire::MessageData(m) => m.message_id().0,
            _ => u64::MAX,
        });
        assert_eq!(sent, fresh);
    }

    #[test]
    fn adversary_selective_withholds_data_but_passes_control() {
        let mut rng = rng();
        let mut host = hosting(&[1.0], &[16; 8], &mut rng);
        host.set_adversary(Some((
            AdversaryStrategy::SelectiveServe {
                serve_fraction: 0.0,
            },
            5,
        )));
        request(&mut host, 0, &mut rng);
        let frame = Wire::message_data_frame_len(&stored(&host, 0)[0]) as f64;
        host.pass(1e6, 1e6, |_| 2, &mut Vec::new());
        assert!(host.staged(0).is_empty(), "the data is withheld");
        assert_eq!(
            host.serve.deficit(0),
            1e6 - 2.0 * frame,
            "and its budget spent"
        );
        authenticate(&mut host, 5, &user(0), &mut rng);
        host.set_adversary(None);
        assert_eq!(pass(&mut host, 64, 0).len(), 6, "honest again once lifted");
    }

    /// What one run of a driver saw: per arrival its replies, per pass its
    /// grants, staged frames and overflow.
    #[derive(Debug, PartialEq)]
    enum Seen {
        Replies(Vec<Wire>),
        Pass(Vec<Grant>, Vec<(u64, Vec<Wire>)>, f64),
    }

    const CONNS: usize = 3;
    const BURST: f64 = 4096.0;
    /// The reactor's window and the sim's flows in flight, in frames.
    const FULL: u32 = 2;

    /// One step: `(kind, conn, amount, headroom class per connection)`.
    type Step = (u8, usize, u32, Vec<u8>);

    /// Drives a fresh host through `steps`. The reactor's budget is its
    /// bucket's balance, `amount` bytes accrued since the last pass plus
    /// the overflow it was refunded; its headroom is the window less the
    /// frames queued at the receiver. Given `budgets` (the reactor run's),
    /// the sim grants each pass one of them as a slot and drops the
    /// overflow; its headroom is the flows it may still have in flight.
    /// Returns what the host did and the budgets it was given.
    fn drive(steps: &[Step], payloads: &[usize], budgets: Option<&[f64]>) -> (Vec<Seen>, Vec<f64>) {
        let mut rng = rng();
        let mut host = hosting(&[1e3, 3e3, 9e3], payloads, &mut rng);
        let mut seen = Vec::new();
        let mut given = Vec::new();
        let mut tokens = BURST;
        let mut grants = Vec::new();
        let (mut sent, mut granted) = ([0.0; CONNS], [0.0; CONNS]);
        for (kind, conn, amount, classes) in steps {
            let (conn, file_id) = (*conn as u64, 10 + *conn as u64);
            let chunk = amount % 2;
            let arrival = match kind {
                0..=3 => None,
                4 => Some(Wire::FileRequest { file_id }),
                5 => Some(Wire::StopChunk { file_id, chunk }),
                6 => Some(Wire::ReplacementRequest { file_id, chunk }),
                7 => Some(Wire::StopTransmission { file_id }),
                8 => Some(Wire::FileRequest { file_id: 99 }),
                _ => Some(Wire::AuthResponse { s: [1; 32] }),
            };
            if let Some(wire) = arrival {
                let mut replies = Vec::new();
                host.on_datagram(conn, [wire], &mut rng, &mut replies);
                seen.push(Seen::Replies(replies));
                continue;
            }
            let room = |c: u64| [0, 1, FULL][usize::from(classes[c as usize] % 3)];
            let (budget, overflow) = match budgets {
                None => {
                    tokens = (tokens + f64::from(*amount)).min(BURST);
                    let budget = std::mem::take(&mut tokens);
                    // The reactor: window less the frames still queued.
                    let queued = |c| FULL - room(c);
                    let overflow = host.pass(budget, BURST, |c| FULL - queued(c), &mut grants);
                    tokens = (tokens + overflow).min(BURST);
                    (budget, overflow)
                }
                Some(budgets) => {
                    let budget = budgets[given.len()];
                    // The sim: flows it may have in flight less those that are.
                    let inflight = |c| FULL - room(c);
                    let overflow = host.pass(budget, BURST, |c| FULL - inflight(c), &mut grants);
                    (budget, overflow)
                }
            };
            given.push(budget);
            let mut staged = Vec::new();
            for g in &grants {
                let frames = std::mem::take(host.staged(g.conn));
                let bytes: usize = frames.iter().map(Wire::encoded_len).sum();
                assert!(frames.len() <= room(g.conn) as usize);
                let c = g.conn as usize;
                (sent[c], granted[c]) = (sent[c] + bytes as f64, granted[c] + g.bytes);
                assert!(
                    sent[c] <= granted[c] + 1e-6,
                    "nothing staged that was not granted"
                );
                let longest = *payloads.iter().max().unwrap() as f64 + 64.0;
                let cap = bank_cap(BURST, g.share, longest);
                assert!(
                    host.serve.deficit(g.conn) <= cap + 1e-6,
                    "no deficit over its cap"
                );
                staged.push((g.conn, frames));
            }
            seen.push(Seen::Pass(std::mem::take(&mut grants), staged, overflow));
        }
        (seen, given)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The engine is a function of its inputs: one generated sequence
        /// of arrivals (requests, stops, replacement requests, requests
        /// for a file not held, protocol errors), budgets, headroom (0, 1
        /// or full) and frame lengths stages the same frames, replies the
        /// same and overflows the same whether the reactor's bookkeeping
        /// drives it (a bucket refunded the overflow, a window's headroom)
        /// or the sim's (slot grants, the overflow dropped, the flows in
        /// flight); and under either, nothing is staged that was not
        /// granted and no deficit exceeds its cap.
        #[test]
        fn one_host_either_driver(
            steps in proptest::collection::vec(
                (0u8..10, 0usize..CONNS, 0u32..6000, proptest::collection::vec(0u8..3, CONNS..=CONNS)),
                1..=60,
            ),
            payloads in proptest::collection::vec(1usize..3000, 8..=8),
        ) {
            let (reactor, budgets) = drive(&steps, &payloads, None);
            let (sim, _) = drive(&steps, &payloads, Some(&budgets));
            prop_assert_eq!(reactor, sim);
        }
    }

    /// The shaped uplink of the paper tests, and the burst the reactor
    /// derives from it (a tenth of a second).
    const UPLINK: f64 = 1e6;
    const LINK_BURST: f64 = 1e5;
    /// An 8 KiB message's frame, with room to spare.
    const FRAME: f64 = 8.0 * 1024.0 + 64.0;

    /// One peer shaped to [`UPLINK`] serves one user per entry of `credit`
    /// for `secs` of scripted time: a real `TokenBucket` on `t0 +
    /// Duration` steps of a millisecond, drained into every pass and
    /// refunded the overflow, the users reading all they are sent. Returns
    /// the bytes each was sent.
    fn side_by_side(credit: &[f64], secs: u64) -> Vec<f64> {
        let mut rng = rng();
        let stock = vec![8192; (3 * UPLINK as usize * secs as usize / 2) / 8192];
        let mut host = hosting(credit, &stock, &mut rng);
        for conn in 0..credit.len() as u64 {
            request(&mut host, conn, &mut rng);
        }
        let t0 = Instant::now();
        let mut bucket = TokenBucket::new(UPLINK, LINK_BURST, t0);
        let mut received = vec![0.0; credit.len()];
        let mut grants = Vec::new();
        for ms in 1..=secs * 1000 {
            let budget = bucket.drain(t0 + Duration::from_millis(ms));
            grants.clear();
            bucket.refund(host.pass(budget, bucket.burst(), |_| 64, &mut grants));
            for g in &grants {
                let staged = host.staged(g.conn);
                received[g.conn as usize] +=
                    staged.iter().map(Wire::encoded_len).sum::<usize>() as f64;
                staged.clear();
            }
        }
        received
    }

    /// Eq. 2 and Theorem 1 over the bytes a pass sends: two users side by
    /// side receive in proportion to their credit, each at least its share
    /// of the link less the burst whoever asked first may have taken and
    /// the part of a frame it is still owed, and the limiter lets through
    /// no more than the link and a burst.
    #[test]
    fn users_side_by_side_receive_in_proportion_to_their_credit() {
        let secs = 2;
        for (credit, owed) in [([1e6, 1e6], 0.50), ([3e6, 1e6], 0.75), ([9e6, 1e6], 0.90)] {
            let received = side_by_side(&credit, secs);
            let total: f64 = received.iter().sum();
            let share = received[0] / total;
            assert!(
                (share - owed).abs() <= 0.05,
                "credit {credit:?}: the first user got {share:.3} of the bytes, owed {owed}"
            );
            let link = UPLINK * secs as f64;
            for (bytes, fraction) in received.iter().zip([owed, 1.0 - owed]) {
                let floor = fraction * link - LINK_BURST - FRAME * secs as f64;
                assert!(
                    *bytes >= floor,
                    "credit {credit:?}: a user owed {fraction} of the link got {bytes} B, under {floor}"
                );
            }
            assert!(
                total <= link + LINK_BURST + 2.0 * FRAME,
                "the limiter let {total} B through"
            );
        }
    }

    /// Theorem 1's "plus a share of idle capacity", at its limit: with
    /// nobody else asking, the whole link is this user's.
    #[test]
    fn a_user_alone_gets_the_whole_link() {
        let secs = 2;
        let received = side_by_side(&[1e6], secs)[0];
        let link = UPLINK * secs as f64;
        assert!(
            received >= 0.95 * link,
            "alone on the link yet only {received} of {link} B"
        );
    }
}
