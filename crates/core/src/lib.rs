//! **asymshare** — fast data access over asymmetric channels using fair and
//! secure bandwidth sharing (reproduction of Agarwal, Laifenfeld,
//! Trachtenberg & Alanyali, IEEE ICDCS 2006).
//!
//! Home internet links upload far slower than they download, so fetching
//! your own data remotely is throttled by your home uplink. This system
//! fixes that by *pre-disseminating* each file — encoded with secret-keyed
//! random linear coding — to `n` peers during idle time. A remote download
//! then pulls `k` coded messages from many peers in parallel, filling the
//! fast downlink with the sum of many slow uplinks. Idle bandwidth is
//! repaid proportionally (the Eq.-2 peer-wise allocation rule), peers learn
//! nothing about stored content (the coding coefficients are the secret),
//! and every message authenticates against the owner's digest list.
//!
//! # Crate map
//!
//! * [`Identity`], [`Prover`]/[`Verifier`] — key material and the Schnorr
//!   challenge–response handshake.
//! * [`Wire`], [`FeedbackReport`] — the user↔peer protocol.
//! * [`MessageStore`], [`Peer`] — the serving side.
//! * [`User`] — the downloading side (parallel fetch, stop, feedback).
//! * [`SimRuntime`] — an end-to-end deployment over the flow-level network
//!   simulator, used by the examples and benchmarks.
//!
//! The coding/fairness machinery lives in the sibling crates
//! `asymshare-rlnc`, `asymshare-alloc`, `asymshare-gf`, `asymshare-crypto`
//! and `asymshare-netsim`.
//!
//! # Quick start
//!
//! ```rust
//! use asymshare::{Identity, RuntimeConfig, SimRuntime};
//! use asymshare_netsim::LinkSpeed;
//! use asymshare_rlnc::FileId;
//!
//! # fn main() -> Result<(), asymshare::SystemError> {
//! let mut rt = SimRuntime::new(RuntimeConfig {
//!     k: 4,
//!     chunk_size: 16 * 1024,
//!     ..RuntimeConfig::default()
//! });
//! // Three DSL peers: slow up, fast down.
//! let peers: Vec<_> = (0..3u8)
//!     .map(|i| {
//!         rt.add_participant(
//!             Identity::from_seed(&[i]),
//!             LinkSpeed::kbps(256.0),
//!             LinkSpeed::kbps(3000.0),
//!         )
//!     })
//!     .collect();
//!
//! // Owner encodes and spreads a file while idle...
//! let video = vec![42u8; 32 * 1024];
//! let (manifest, _) = rt.disseminate(peers[0], FileId(1), &video, &peers)?;
//!
//! // ...and later fetches it remotely from all peers at once.
//! let session = rt.start_download(
//!     peers[0], manifest, LinkSpeed::kbps(256.0), LinkSpeed::kbps(3000.0), &peers)?;
//! let report = rt.run_to_completion(session, 600)?;
//! assert_eq!(report.data, video);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod fetch;
mod host;
mod identity;
mod peer;
mod protocol;
mod recovery;
pub mod rt;
mod runtime;
mod serve;
mod session;
mod store;
mod user;

pub use error::SystemError;
pub use identity::Identity;
pub use peer::{KeyBytes, Peer};
pub use protocol::{FeedbackEntry, FeedbackReport, Wire};
pub use runtime::{
    DownloadReport, ParticipantId, RuntimeConfig, SessionId, SimRuntime, INITIAL_CREDIT_BYTES,
    SLOT_SECS,
};
pub use session::{Prover, Verifier};
pub use store::MessageStore;
pub use user::{ConnStage, SessionStats, User};
