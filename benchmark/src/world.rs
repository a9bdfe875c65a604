//! Workload definitions and set-up: generate the inputs from the seed,
//! publish them (encode → manifest → peer stores) and host the peers on an
//! event-loop `Reactor` with `ReactorConfig::default()`.
//!
//! Everything here drives the product through its public API on the one
//! configuration the runtimes execute: `User<Gf2p32>`, GF(2^32), `k = 8`,
//! MD5 digests.

use asymshare::rt::{DownloadOptions, FaultPlan, Reactor, ReactorConfig, RtNetwork};
use asymshare::{Identity, KeyBytes, Peer};
use asymshare_gf::{FieldKind, Gf2p32};
use asymshare_obs::{EventSink, Registry, Span};
use asymshare_rlnc::{ChunkedEncoder, DigestKind, EncodedMessage, FileId, FileManifest};
use std::time::{Duration, Instant};

/// Pieces per chunk.
pub const K: usize = 8;
/// Peers every file is disseminated to; each holds a full batch.
pub const PEERS: usize = 4;
/// "Unshaped" uplink: the token bucket never empties.
pub const UNSHAPED: u64 = u64::MAX / 2;
/// Hosted peers live at `PEER_BASE_ADDR + i`.
pub const PEER_BASE_ADDR: u64 = 100;
/// Peer and user addresses share one namespace and an address cannot be
/// registered twice, so every op takes a fresh user address from here up.
pub const USER_BASE_ADDR: u64 = 10_000;
/// The background user of `shaped` draws its addresses from here up.
pub const BACKGROUND_BASE_ADDR: u64 = 1 << 40;
/// An op slower than this has failed.
pub const OP_TIMEOUT: Duration = Duration::from_secs(20);
/// Credit every peer starts every user with (bytes).
const INITIAL_CREDIT: f64 = 1_000.0;

const MIB: usize = 1 << 20;
const KIB: usize = 1 << 10;

/// What one op of a workload does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A user fetches its file from the hosted peers.
    Fetch,
    /// The owner encodes a file and fills four fresh peer stores.
    Publish,
}

/// One benchmark workload.
#[derive(Debug)]
pub struct Spec {
    pub name: &'static str,
    /// Why the workload exists (copied into `BENCHMARK.json`).
    pub why: &'static str,
    pub kind: Kind,
    pub file_bytes: usize,
    pub chunk_bytes: usize,
    /// Token-bucket rate of every peer's uplink, bytes per second.
    pub peer_rate: u64,
    /// `(loss, corruption)` probabilities per datagram. At 5 % loss about
    /// one fetch in eight stalls (a peer's five-datagram handshake wedges
    /// for one peer in four, and with two or three wedged a lost data
    /// datagram leaves a hole nobody fills); a 10 s window then holds eight
    /// stalls give or take three, and goodput swings by up to a quarter
    /// between runs. 2 % leaves two or three.
    pub faults: Option<(f64, f64)>,
    /// A second user with a third of the measured user's credit fetches
    /// its own file in a background loop.
    pub background: bool,
    /// The traced run rewrites the client loop from public pieces, one
    /// span per call. Needs a clean link: the staged loop does not heal.
    pub staged: bool,
}

impl Spec {
    /// The self-healing knobs a fetch of this workload runs with.
    pub fn options(&self) -> DownloadOptions {
        if self.faults.is_some() {
            // A fetch stalls when losses leave a hole no serving peer
            // will fill, and then waits out the stall timeout. With the
            // default 2 s one stall costs as much as fifteen clean fetches;
            // 300 ms keeps it at the scale of two. Shorter is not safe: the
            // loop clocks a peer's silence when it *processes* the peer's
            // datagram, so with a 100 ms timeout a reply queued behind
            // 100 ms of coded frames reads as a stall, the handshake is
            // re-run while the old reply is still queued, and the fetch
            // dies on the stale reply ("possible MITM") about once in two
            // thousand ops.
            DownloadOptions {
                timeout: OP_TIMEOUT,
                stall_timeout: Duration::from_millis(300),
                retry_backoff: Duration::from_millis(100),
                max_peer_retries: 20,
            }
        } else {
            DownloadOptions::new(OP_TIMEOUT)
        }
    }
}

pub const SPECS: [Spec; 6] = [
    Spec {
        name: "bulk",
        why: "32 MiB at 1 MiB chunks from 4 unshaped peers: CPU-bound on the client (MD5 verify, rank check, symbol copy, final decode); limiter and Eq.-2 split idle",
        kind: Kind::Fetch,
        file_bytes: 32 * MIB,
        chunk_bytes: MIB,
        peer_rate: UNSHAPED,
        faults: None,
        background: false,
        staged: true,
    },
    Spec {
        name: "small_msgs",
        why: "16 MiB at the 64 KiB rung: 16x the messages per byte of bulk, so per-frame costs (next_message, wire, pool, coalescing, window, rows, rank) dominate and the GF kernel does not",
        kind: Kind::Fetch,
        file_bytes: 16 * MIB,
        chunk_bytes: 64 * KIB,
        peer_rate: UNSHAPED,
        faults: None,
        background: false,
        staged: true,
    },
    Spec {
        name: "shaped",
        why: "2 MiB at 64 KiB chunks from 4 peers shaped to 1 MB/s, a 3:1-credit user beside a background user: link-bound, CPU idle; exercises limiter and Eq.-2 serve pass, which bulk bypasses",
        kind: Kind::Fetch,
        file_bytes: 2 * MIB,
        chunk_bytes: 64 * KIB,
        peer_rate: 1_000_000,
        faults: None,
        background: true,
        staged: false,
    },
    Spec {
        name: "lossy",
        why: "16 MiB at 256 KiB chunks under 2% loss and 2% corruption: the same layers through the failure path (drops, digest rejects, replacement requests, heal ladder)",
        kind: Kind::Fetch,
        file_bytes: 16 * MIB,
        chunk_bytes: 256 * KIB,
        peer_rate: UNSHAPED,
        faults: Some((0.02, 0.02)),
        background: false,
        staged: false,
    },
    Spec {
        name: "sessions",
        why: "one 64 KiB file (1 chunk, 8 messages) from 4 peers: handshake-bound (4 Schnorr exchanges, ack verifies, reactor tick latency, per-connection state), bytes negligible",
        kind: Kind::Fetch,
        file_bytes: 64 * KIB,
        chunk_bytes: 64 * KIB,
        peer_rate: UNSHAPED,
        faults: None,
        background: false,
        staged: true,
    },
    Spec {
        name: "publish",
        why: "owner side, no fetch: encoder construction, keyed rows with rank check, parallel payload combination, digest recording, manifest, store inserts for 32 MiB at 1 MiB chunks",
        kind: Kind::Publish,
        file_bytes: 32 * MIB,
        chunk_bytes: MIB,
        peer_rate: UNSHAPED,
        faults: None,
        background: false,
        staged: true,
    },
];

pub fn spec_named(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// `len` incompressible bytes from `(seed, stream)` (xorshift64*).
pub fn generate(seed: u64, stream: u64, len: usize) -> Vec<u8> {
    // SplitMix64 finalizer over both inputs, so nearby seeds and streams
    // start far apart and the state is never zero.
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    let mut x = (z ^ (z >> 31)) | 1;
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        out.extend_from_slice(&x.wrapping_mul(0x2545_F491_4F6C_DD1D).to_le_bytes());
    }
    out.truncate(len);
    out
}

/// A deterministic identity for `role` under `seed`.
pub fn identity(seed: u64, role: &str) -> Identity {
    Identity::from_seed(format!("asymshare-benchmark/{seed}/{role}").as_bytes())
}

/// The identities of the hosted peers under `seed`.
pub fn peer_identities(seed: u64) -> Vec<Identity> {
    (0..PEERS)
        .map(|i| identity(seed, &format!("peer{i}")))
        .collect()
}

/// The result of one publish: what the owner keeps (manifest) and what it
/// hands to the peers (stores filled with one full batch each).
#[derive(Debug)]
pub struct Published {
    pub manifest: FileManifest,
    pub manifest_bytes: usize,
    pub peers: Vec<Peer>,
    pub encoder_new: Duration,
    pub encode: Duration,
    /// Coded payload bytes produced for all peers.
    pub coded_bytes: u64,
}

/// The owner's write path, start to finish: encoder construction →
/// `encode_for_peers` → manifest serialization → one store insert per
/// message into a fresh `Peer` per batch. With `op` set, each of the four
/// steps runs under a child span.
pub fn publish(
    owner: &Identity,
    file_id: u64,
    data: &[u8],
    chunk_bytes: usize,
    peer_ids: &[Identity],
    op: Option<&Span>,
) -> Result<Published, String> {
    let t0 = Instant::now();
    let span = op.map(|s| s.child("rlnc.encoder_new"));
    let mut encoder = ChunkedEncoder::<Gf2p32>::with_chunk_size(
        FieldKind::Gf2p32,
        K,
        DigestKind::Md5,
        owner.coding_secret().clone(),
        FileId(file_id),
        data,
        chunk_bytes,
    )
    .map_err(|e| format!("encoder: {e}"))?;
    drop(span);
    let encoder_new = t0.elapsed();

    let t1 = Instant::now();
    let span = op.map(|s| s.child("rlnc.encode_for_peers"));
    let batches = encoder
        .encode_for_peers(peer_ids.len())
        .map_err(|e| format!("encode_for_peers: {e}"))?;
    drop(span);
    let encode = t1.elapsed();

    let span = op.map(|s| s.child("rlnc.manifest_to_bytes"));
    let manifest_bytes = encoder.manifest().to_bytes().len();
    drop(span);

    let span = op.map(|s| s.child("core.store.insert"));
    let mut coded_bytes = 0u64;
    let mut peers = Vec::with_capacity(batches.len());
    for (identity, batch) in peer_ids.iter().zip(batches) {
        let mut peer = Peer::new(identity.clone(), INITIAL_CREDIT);
        for message in batch {
            coded_bytes += message.payload().len() as u64;
            if !peer.store_mut().insert(message) {
                return Err("store refused a freshly encoded message".to_owned());
            }
        }
        peers.push(peer);
    }
    drop(span);

    Ok(Published {
        manifest: encoder.manifest().clone(),
        manifest_bytes,
        peers,
        encoder_new,
        encode,
        coded_bytes,
    })
}

/// One user's view of a hosted file: who they are, what they carry, and
/// the bytes a correct fetch returns.
#[derive(Debug)]
pub struct Owned {
    pub owner: Identity,
    pub manifest: FileManifest,
    pub data: Vec<u8>,
}

/// Peers hosted on an event-loop reactor with `ReactorConfig::default()`.
pub struct Hosted {
    pub network: RtNetwork,
    // Dropped with the deployment: shuts the worker down and joins it.
    _reactor: Reactor,
    /// `(address, public key)` of every hosted peer.
    pub peers: Vec<(u64, KeyBytes)>,
}

impl Hosted {
    /// Hosts `peers` at `PEER_BASE_ADDR..`, each uplink shaped to `rate`
    /// bytes per second.
    pub fn new(network: RtNetwork, peers: Vec<Peer>, rate: u64) -> Hosted {
        let mut reactor = Reactor::new(&network, ReactorConfig::default());
        let mut addrs = Vec::with_capacity(peers.len());
        for (i, peer) in peers.into_iter().enumerate() {
            let addr = PEER_BASE_ADDR + i as u64;
            addrs.push((addr, peer.identity().public_key().to_bytes()));
            reactor.add_peer(addr, peer, rate);
        }
        Hosted {
            network,
            _reactor: reactor,
            peers: addrs,
        }
    }
}

/// A fetch workload's deployment: the hosted peers and what they hold.
pub struct Deployment {
    pub hosted: Hosted,
    pub file: Owned,
    /// The background user's file (`shaped`).
    pub background: Option<Owned>,
    /// Peer 0's batch of the measured file: what one peer alone serves.
    pub batch0: Vec<EncodedMessage>,
    pub encoder_new: Duration,
    pub encode: Duration,
    pub coded_bytes: u64,
    pub manifest_bytes: usize,
}

/// Everything a workload's ops run against.
pub struct World {
    pub spec: &'static Spec,
    /// `Publish`: the bytes each op publishes.
    pub data: Vec<u8>,
    pub owner: Identity,
    pub peer_ids: Vec<Identity>,
    /// `Fetch`: the hosted peers and their files.
    pub deployment: Option<Deployment>,
}

/// Set-up, timed by the caller: generate data, publish, host peers.
/// `obs` turns the network's observability on (the traced run).
pub fn build(spec: &'static Spec, seed: u64, obs: Option<(Registry, EventSink)>) -> World {
    let owner = identity(seed, "owner");
    let peer_ids = peer_identities(seed);
    let data = generate(seed, 1, spec.file_bytes);
    if spec.kind == Kind::Publish {
        return World {
            spec,
            data,
            owner,
            peer_ids,
            deployment: None,
        };
    }

    let mut main = publish(&owner, 1, &data, spec.chunk_bytes, &peer_ids, None)
        .expect("publish the measured file");
    let batch0 = main.peers[0].store().messages(FileId(1)).to_vec();
    let owner_key = owner.public_key().to_bytes();
    for peer in &mut main.peers {
        peer.add_subscriber(owner_key);
    }

    let background = spec.background.then(|| {
        let other = identity(seed, "owner-b");
        // Not the measured file's length: two users fetching equal files at
        // equal rates lock step, every op then takes one of two durations
        // a frame apart, and the median flips between them run to run.
        let other_data = generate(seed, 2, spec.file_bytes + 3 * spec.chunk_bytes);
        let second = publish(&other, 2, &other_data, spec.chunk_bytes, &peer_ids, None)
            .expect("publish the background file");
        let other_key = other.public_key().to_bytes();
        for (peer, from) in main.peers.iter_mut().zip(&second.peers) {
            for message in from.store().messages(FileId(2)) {
                peer.store_mut().insert(message.clone());
            }
            peer.add_subscriber(other_key);
            // Eq. 2 inputs: the measured user's home peer has contributed
            // three times what the background user's has.
            peer.credit_direct(owner_key, 3e6);
            peer.credit_direct(other_key, 1e6);
        }
        Owned {
            owner: other,
            manifest: second.manifest,
            data: other_data,
        }
    });

    let network = match obs {
        Some((metrics, events)) => RtNetwork::with_observability(metrics, events),
        None => RtNetwork::new(),
    };
    let hosted = Hosted::new(network, main.peers, spec.peer_rate);
    if let Some((loss, corruption)) = spec.faults {
        hosted.network.install_faults(
            FaultPlan::new(seed)
                .with_loss(loss)
                .with_corruption(corruption),
        );
    }

    World {
        spec,
        owner: owner.clone(),
        peer_ids,
        deployment: Some(Deployment {
            hosted,
            file: Owned {
                owner,
                manifest: main.manifest,
                data,
            },
            background,
            batch0,
            encoder_new: main.encoder_new,
            encode: main.encode,
            coded_bytes: main.coded_bytes,
            manifest_bytes: main.manifest_bytes,
        }),
        data: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_bytes_follow_the_seed() {
        assert_eq!(generate(7, 1, 1000), generate(7, 1, 1000));
        assert_ne!(generate(7, 1, 1000), generate(8, 1, 1000));
        assert_ne!(generate(7, 1, 1000), generate(7, 2, 1000));
        assert_eq!(generate(0, 0, 13).len(), 13);
        // A prefix of a longer draw is the shorter draw.
        assert_eq!(generate(3, 1, 64)[..13], generate(3, 1, 13)[..]);
    }

    #[test]
    fn workload_names_are_unique_and_found() {
        for spec in &SPECS {
            assert_eq!(spec_named(spec.name).map(|s| s.name), Some(spec.name));
            assert!(spec.why.len() <= 200, "{} why too long", spec.name);
        }
        assert!(spec_named("nope").is_none());
    }
}
