//! `KvStore::open` against the owned recovery APIs, which stay the oracle:
//! whatever a shard's checkpoint pair and WAL hold — empty, torn, stale,
//! equal-epoch, checksum-failing or checksum-valid-but-malformed buffers;
//! committed, uncommitted, out-of-order, deleting, torn and non-UTF-8 log
//! lines — the reopened shard holds what `decode_checkpoint` + `recover`
//! say it must, and the next checkpoint it writes carries the epoch and
//! next txid they say, into the buffer they say.

use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;
use txfix_kvstore::page::{
    checkpoint_image, decode_checkpoint, encode_checkpoint_entries, Checkpoint,
};
use txfix_kvstore::{KvConfig, KvStore, Mode};
use txfix_stm::chaos::fnv64;
use txfix_wal::{recover, WalOp};
use txfix_xcall::SimFs;

/// What recovery must produce for one shard: the checkpoint the reopened
/// store writes next (epoch + 1, the recovered next txid and contents), and
/// the buffer it goes to (the one recovery did *not* take its base from).
type Want = (Checkpoint, usize);

/// One checkpoint buffer: `(kind, epoch, next_txid, entries, cut)`. Kind 0
/// is an empty file, 1 a valid image, 2 a valid image torn at `cut`, 3 a
/// checksum-valid image with a malformed `S` line at `cut`, 4 a valid
/// image with one payload byte overwritten at `cut` (header and trailer
/// still parse; the checksum fails).
type BufferSpec = (u8, u64, u64, Vec<(u8, u8)>, usize);

/// One WAL line: `(kind, txid, key, value)`. Kinds 0–7 put, 8–10 delete,
/// 11–14 commit, 15 a line that is not UTF-8.
type LineSpec = (u8, u64, u8, u8);

fn buffer() -> impl Strategy<Value = BufferSpec> {
    (0u8..5, 0u64..4, 0u64..10, vec((0u8..6, 0u8..10), 0..6), any::<usize>())
}

fn line() -> impl Strategy<Value = LineSpec> {
    (0u8..16, 1u64..12, 0u8..6, 0u8..10)
}

fn image((kind, epoch, next_txid, entries, cut): &BufferSpec) -> Vec<u8> {
    let map: BTreeMap<String, String> =
        entries.iter().map(|(k, v)| (format!("k{k}"), format!("v{v}"))).collect();
    let mut lines: Vec<(&str, &str)> = map.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
    if *kind == 3 {
        // Five tokens on one line: the checksum covers it, the parser must not.
        lines.insert(cut % (lines.len() + 1), ("k9 extra", "v0"));
    }
    let image = encode_checkpoint_entries(*epoch, *next_txid, lines.into_iter());
    match kind {
        0 => Vec::new(),
        // Any cut but the final newline's tears the image.
        2 => image[..cut % (image.len() - 1)].to_vec(),
        4 => corrupt_payload(image, *cut),
        _ => image,
    }
}

/// Where an image's payload lies: between the header line and the trailer
/// line.
fn payload(image: &[u8]) -> std::ops::Range<usize> {
    let start = image.iter().position(|&b| b == b'\n').unwrap() + 1;
    start..image[..image.len() - 1].iter().rposition(|&b| b == b'\n').unwrap() + 1
}

/// Whether `image`'s payload hashes to the checksum its trailer carries,
/// whatever its lines hold.
fn checksum_holds(image: &[u8]) -> bool {
    let range = payload(image);
    let trailer = std::str::from_utf8(&image[range.end..]).unwrap();
    trailer.contains(&format!(" {:016x} ", fnv64(&image[range])))
}

/// `image` with the payload byte at `at` (modulo the payload's length)
/// overwritten by another printable one; an empty payload is left alone.
fn corrupt_payload(mut image: Vec<u8>, at: usize) -> Vec<u8> {
    let std::ops::Range { start, end } = payload(&image);
    if end > start {
        let i = start + at % (end - start);
        image[i] = if image[i] == b'#' { b'%' } else { b'#' };
    }
    image
}

fn wal_image(lines: &[LineSpec], torn_tail: bool) -> Vec<u8> {
    let mut log = Vec::new();
    for &(kind, txid, k, v) in lines {
        match kind {
            0..=7 => log.extend(format!("P {txid} k{k} v{v} ;\n").bytes()),
            8..=10 => log.extend(format!("D {txid} k{k} ;\n").bytes()),
            11..=14 => log.extend(format!("C {txid} ;\n").bytes()),
            _ => log.extend(b"P 1 k\xff v1 ;\n"),
        }
    }
    if torn_tail {
        log.extend(b"P 5 k1 v");
    }
    log
}

fn write_shard(fs: &SimFs, shard: usize, images: [&[u8]; 2], log: &[u8]) {
    for (b, image) in images.into_iter().enumerate() {
        fs.open_or_create(&format!("kv_shard{shard}.pages{b}")).append(image);
    }
    fs.open_or_create(&format!("kv_shard{shard}.wal")).append(log);
}

/// The reference, from the owned APIs: the newest checkpoint that decodes
/// and has an epoch above 0 (a tie goes to buffer 0), then every committed
/// WAL transaction with `txid >= next_txid`, in txid order.
fn reference(fs: &SimFs, shard: usize) -> Want {
    let mut base = Checkpoint { epoch: 0, next_txid: 1, map: BTreeMap::new() };
    let mut active = 0;
    for b in 0..2 {
        let image = fs.open_or_create(&format!("kv_shard{shard}.pages{b}")).read_all();
        if let Some(cp) = decode_checkpoint(&image).filter(|cp| cp.epoch > base.epoch) {
            (base, active) = (cp, b);
        }
    }
    let rec = recover(&fs.open_or_create(&format!("kv_shard{shard}.wal")));
    for txid in rec.committed.range(base.next_txid..) {
        for op in rec.ops.get(txid).into_iter().flatten() {
            match op {
                WalOp::Put(k, v) => drop(base.map.insert(k.clone(), v.clone())),
                WalOp::Delete(k) => drop(base.map.remove(k)),
            }
        }
    }
    let next_txid = base.next_txid.max(rec.next_txid);
    (Checkpoint { epoch: base.epoch + 1, next_txid, map: base.map }, 1 - active)
}

/// Reopen a store of `want.len()` shards over `fs` and hold every shard to
/// its reference: the contents, then the checkpoint it writes next.
fn check(fs: &Arc<SimFs>, want: &[Want]) {
    let kv = KvStore::open(fs, KvConfig::new(Mode::Tm, want.len()));
    for (s, (next, target)) in want.iter().enumerate() {
        assert_eq!(kv.shard_snapshot(s), next.map, "shard {s}: contents");
        kv.checkpoint(s);
        let written = fs.open_or_create(&format!("kv_shard{s}.pages{target}")).read_all();
        assert_eq!(decode_checkpoint(&written).as_ref(), Some(next), "shard {s}: next checkpoint");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn reopen_equals_decode_checkpoint_plus_recover(
        shards in vec((buffer(), buffer(), vec(line(), 0..24), any::<bool>()), 1..3),
    ) {
        let fs = SimFs::new();
        let mut want = Vec::new();
        for (s, (b0, b1, lines, torn_tail)) in shards.iter().enumerate() {
            write_shard(&fs, s, [&image(b0), &image(b1)], &wal_image(lines, *torn_tail));
            want.push(reference(&fs, s));
        }
        check(&fs, &want);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Up to ~600 distinct keys on one shard, more than two leaves' worth
    /// (a leaf holds at most 64), so the reopen packs several leaves and the
    /// replayed log lands across them: a checkpoint of `base` keys, then
    /// puts and deletes over them and past them, committed or not.
    #[test]
    fn a_many_leaf_shard_reopens_to_its_reference(
        base in 0usize..600,
        writes in vec((1u64..40, 0usize..700, any::<bool>()), 0..200),
        commits in vec(1u64..40, 0..40),
    ) {
        let entries: Vec<(String, String)> =
            (0..base).map(|i| (format!("k{i:03}"), format!("v{i}"))).collect();
        let image = encode_checkpoint_entries(1, 1, entries.iter().map(|(k, v)| (&**k, &**v)));
        let mut log = String::new();
        for (txid, k, put) in writes {
            log += &match put {
                true => format!("P {txid} k{k:03} w{txid} ;\n"),
                false => format!("D {txid} k{k:03} ;\n"),
            };
        }
        for txid in commits {
            log += &format!("C {txid} ;\n");
        }
        let fs = SimFs::new();
        write_shard(&fs, 0, [&image, b""], log.as_bytes());
        let want = reference(&fs, 0);
        check(&fs, &[want]);
    }
}

fn valid(epoch: u64, next_txid: u64, entries: &[(&str, &str)]) -> Vec<u8> {
    encode_checkpoint_entries(epoch, next_txid, entries.iter().copied())
}

fn cp(epoch: u64, next_txid: u64, entries: &[(&str, &str)]) -> Checkpoint {
    let map = entries.iter().map(|&(k, v)| (k.to_string(), v.to_string())).collect();
    Checkpoint { epoch, next_txid, map }
}

/// One shard over `images` and `log`: the reference must be `want`, and
/// the store must agree with it.
fn one_shard(images: [&[u8]; 2], log: &[u8], want: Want) {
    let fs = SimFs::new();
    write_shard(&fs, 0, images, log);
    assert_eq!(reference(&fs, 0), want);
    check(&fs, &[want]);
}

#[test]
fn a_checksum_valid_newer_buffer_with_a_malformed_line_loses() {
    let newer = valid(3, 9, &[("b", "2"), ("c d", "3")]);
    assert!(checkpoint_image(&newer).is_some() && checksum_holds(&newer));
    assert!(decode_checkpoint(&newer).is_none());
    // Buffer 0 wins, so the next checkpoint (epoch 2 + 1) replaces buffer 1.
    one_shard([&valid(2, 4, &[("a", "1")]), &newer], b"", (cp(3, 4, &[("a", "1")]), 1));
    // The same with the buffers swapped.
    one_shard([&newer, &valid(2, 4, &[("a", "1")])], b"", (cp(3, 4, &[("a", "1")]), 0));
}

#[test]
fn a_newer_buffer_whose_checksum_fails_loses() {
    let newer = corrupt_payload(valid(3, 9, &[("b", "2")]), 2);
    assert!(checkpoint_image(&newer).is_some_and(|i| i.epoch == 3) && !checksum_holds(&newer));
    one_shard([&valid(2, 4, &[("a", "1")]), &newer], b"", (cp(3, 4, &[("a", "1")]), 1));
    one_shard([&newer, &valid(2, 4, &[("a", "1")])], b"", (cp(3, 4, &[("a", "1")]), 0));
}

#[test]
fn a_corrupted_older_buffer_changes_nothing() {
    let (older, newer) = (valid(2, 4, &[("a", "1")]), valid(3, 9, &[("b", "2")]));
    let corrupted = corrupt_payload(older.clone(), 0);
    assert!(checkpoint_image(&corrupted).is_some() && !checksum_holds(&corrupted));
    for older in [&older, &corrupted] {
        one_shard([older, &newer], b"", (cp(4, 9, &[("b", "2")]), 0));
        one_shard([&newer, older], b"", (cp(4, 9, &[("b", "2")]), 1));
    }
}

#[test]
fn an_equal_epoch_goes_to_buffer_0() {
    let images = [&valid(5, 2, &[("a", "0")])[..], &valid(5, 3, &[("a", "1")])];
    one_shard(images, b"", (cp(6, 2, &[("a", "0")]), 1));
}

#[test]
fn epoch_0_is_ignored() {
    // Taken as a base, the epoch-0 buffer would keep `a` and fence txid 3
    // out; ignored, the store starts empty at txid 1 and replays txid 3.
    let epoch0 = valid(0, 50, &[("a", "1")]);
    one_shard([&epoch0, b""], b"P 3 c 3 ;\nC 3 ;\n", (cp(1, 4, &[("c", "3")]), 1));
}
