//! What the §III-B challenge–response costs, move by move: every group
//! operation a handshake performs, the field inversion behind each
//! serialised point, and one whole mutual handshake as `User` and `Peer` run
//! it (commit → challenge → response → verify + countersign → the user's
//! check of the countersignature).
//!
//! ```text
//! cargo bench -p asymshare-bench --bench schnorr -- handshake
//! ```

use asymshare::{Identity, Peer, User, Wire};
use asymshare_crypto::chacha20::ChaChaRng;
use asymshare_crypto::fe25519::Fe;
use asymshare_crypto::schnorr::{self, Identification};
use asymshare_gf::{FieldKind, Gf2p32};
use asymshare_rlnc::{ChunkedEncoder, DigestKind, FileId};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn bench_handshake(c: &mut Criterion) {
    let mut rng = ChaChaRng::new([0x48; 32], *b"bench-hshake");
    let user = Identity::from_seed(b"bench user");
    let home = Identity::from_seed(b"bench peer");
    let keys = user.auth_keys();
    let public = user.public_key();

    let (commitment, nonce) = Identification::commit(&mut rng);
    let challenge = Identification::challenge(&mut rng);
    let response = Identification::respond(keys, &nonce, &challenge);
    let message = [0x5Au8; 54];
    let sig = keys.sign(&message, &mut rng);
    let x = Fe::from_u64(0x1234_5678_9abc_def1);

    let mut group = c.benchmark_group("schnorr/handshake");
    group.bench_function("commit", |b| b.iter(|| Identification::commit(&mut rng)));
    group.bench_function("identification_verify", |b| {
        b.iter(|| {
            Identification::verify(
                black_box(&public),
                black_box(&commitment),
                &challenge,
                &response,
            )
        })
    });
    group.bench_function("sign", |b| {
        b.iter(|| keys.sign(black_box(&message), &mut rng))
    });
    group.bench_function("verify", |b| {
        b.iter(|| schnorr::verify(black_box(&public), &message, black_box(&sig)))
    });
    group.bench_function("fe_inv", |b| b.iter(|| black_box(x).inv()));
    group.bench_function("public_key_to_bytes", |b| {
        b.iter(|| black_box(&public).to_bytes())
    });

    // The product path: `User` holds the prover and checks the peer's
    // countersignature, `Peer` verifies and countersigns.
    let mut enc = ChunkedEncoder::<Gf2p32>::with_chunk_size(
        FieldKind::Gf2p32,
        4,
        DigestKind::Md5,
        user.coding_secret().clone(),
        FileId(7),
        &[7u8; 4096],
        2048,
    )
    .expect("encoder");
    enc.encode_for_peers(1).expect("encode");
    let mut client = User::<Gf2p32>::new(user.clone(), enc.manifest().clone()).expect("user");
    let mut peer = Peer::new(home.clone(), 1.0);
    peer.add_subscriber(public.to_bytes());
    let peer_key = home.public_key().to_bytes();
    let mut conn = 0u64;
    group.bench_function("mutual", |b| {
        b.iter(|| {
            conn += 1;
            let mut wire = client.connect(conn, peer_key, &mut rng);
            for _ in 0..2 {
                let reply = peer.on_message(conn, wire, &mut rng).expect("peer");
                let mut out = client
                    .on_message(conn, reply.into_iter().next().expect("reply"), &mut rng)
                    .expect("user");
                wire = out.remove(0).1;
            }
            assert!(matches!(wire, Wire::FileRequest { .. }), "authenticated");
            client.drop_conn(conn);
            peer.disconnect(conn);
        })
    });
    group.finish();
}

criterion_group!(schnorr_bench, bench_handshake);
criterion_main!(schnorr_bench);
