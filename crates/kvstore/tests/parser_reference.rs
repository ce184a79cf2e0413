//! `CheckpointImage::entries`, the one parser of a checkpoint's `S` lines,
//! against a frozen copy of the parser it replaced: `str::lines`, then
//! exactly four space-separated fields, the first `S` and the last `;`. A
//! key or value may be empty or any non-space UTF-8; the checkpoint never
//! used the WAL's charset. The frame parser and `decode_checkpoint` (frame,
//! checksum, entries) are held to frozen copies too.

use proptest::collection::vec;
use proptest::prelude::*;
use txfix_kvstore::page::{
    checkpoint_image, decode_checkpoint, encode_checkpoint_entries, Checkpoint,
};
use txfix_stm::chaos::fnv64;

/// The reference: the body of `entries` as it was, with the tokenizer it
/// used, and the frame parser and decoder that used the same tokenizer.
mod frozen {
    use super::{fnv64, Checkpoint};

    /// A frame's epoch, next txid, payload and checksum.
    pub fn frame(bytes: &[u8]) -> Option<(u64, u64, &str, u64)> {
        let text = std::str::from_utf8(bytes).ok()?;
        let (header, rest) = text.split_once('\n')?;
        let ["KVCP", epoch, next_txid, len, ";"] = fields(header)? else { return None };
        let (epoch, next_txid) = (epoch.parse().ok()?, next_txid.parse().ok()?);
        let (payload, tail) = rest.split_at_checked(len.parse().ok()?)?;
        let ["KVEND", end_epoch, sum, ";"] = fields(tail.lines().next()?)? else { return None };
        let (end_epoch, sum) = (end_epoch.parse::<u64>().ok()?, u64::from_str_radix(sum, 16).ok()?);
        (end_epoch == epoch).then_some((epoch, next_txid, payload, sum))
    }

    pub fn decode(bytes: &[u8]) -> Option<Checkpoint> {
        let (epoch, next_txid, payload, sum) = frame(bytes)?;
        if fnv64(payload.as_bytes()) != sum {
            return None;
        }
        let entries = entries(payload).into_iter();
        let map = entries.map(|e| e.map(|(k, v)| (k.into(), v.into()))).collect::<Option<_>>()?;
        Some(Checkpoint { epoch, next_txid, map })
    }

    pub fn entries(payload: &str) -> Vec<Option<(&str, &str)>> {
        payload
            .lines()
            .map(|line| match fields(line)? {
                ["S", k, v, ";"] => Some((k, v)),
                _ => None,
            })
            .collect()
    }

    fn fields<const N: usize>(line: &str) -> Option<[&str; N]> {
        let (mut tokens, mut out) = (line.split(' '), [""; N]);
        for slot in &mut out {
            *slot = tokens.next()?;
        }
        tokens.next().is_none().then_some(out)
    }
}

/// The characters a parser is most likely to get wrong: the format's own,
/// the line ends, a crash hole's zero, and characters outside ASCII (two-
/// and three-byte ones, and the two Unicode line breaks `str::lines` does
/// not split on).
const ALPHABET: &[char] = &[
    'S', 'D', 'k', 'v', '0', '7', '+', '-', ';', '_', ' ', ' ', '\r', '\n', '\0', 'é', '\u{85}',
    '\u{2028}',
];

/// `payload` framed as a checkpoint image (checksum not checked here), and
/// `entries` against the reference on it.
fn check(payload: &str) {
    let image = format!("KVCP 1 1 {} ;\n{payload}KVEND 1 0 ;\n", payload.len());
    let image = checkpoint_image(image.as_bytes()).expect("the frame parses");
    assert_eq!(image.entries().collect::<Vec<_>>(), frozen::entries(payload), "{payload:?}");
}

fn noise() -> impl Strategy<Value = String> {
    vec(0..ALPHABET.len(), 0..64).prop_map(|ix| ix.into_iter().map(|i| ALPHABET[i]).collect())
}

/// Well-formed lines (keys and values possibly empty), with or without a
/// final newline, then up to two edits: `(what, where, char)` — 0 none, 1
/// replace, 2 insert (a space half of the time), 3 delete.
type Edited = (Vec<(String, String)>, bool, Vec<(u8, usize, usize)>);

fn edited() -> impl Strategy<Value = Edited> {
    let edit = (0u8..4, any::<usize>(), 0..2 * ALPHABET.len());
    (vec(("[a-z0-9é]{0,4}", "[a-z0-9_]{0,5}"), 1..5), any::<bool>(), vec(edit, 0..3))
}

fn build((lines, final_newline, edits): &Edited) -> String {
    let mut text: Vec<char> = lines
        .iter()
        .map(|(k, v)| format!("S {k} {v} ;"))
        .collect::<Vec<_>>()
        .join("\n")
        .chars()
        .collect();
    if *final_newline {
        text.push('\n');
    }
    for &(what, at, c) in edits {
        let c = ALPHABET.get(c).copied().unwrap_or(' ');
        match what {
            1 if !text.is_empty() => {
                let len = text.len();
                text[at % len] = c;
            }
            2 => text.insert(at % (text.len() + 1), c),
            3 if !text.is_empty() => drop(text.remove(at % text.len())),
            _ => {}
        }
    }
    text.into_iter().collect()
}

/// The bytes a frame parser is most likely to get wrong: the frame's own
/// letters and digits, a sign, the separators (a space three times over),
/// line ends, a zero, and a byte that is never UTF-8.
const FRAME_ALPHABET: &[u8] = b"KVCPSEND0123456789abcdef+-   ;\n\r\0\xff";

/// A valid image (entries, epoch, next txid), then up to three one-byte
/// edits `(what, region, where, byte)`: 0 none, 1 replace, 2 insert, 3
/// delete; region 0 is the header line, 1 the trailer line, 2 anywhere, 3
/// the last byte of the header or the trailer line.
type EditedImage = (Vec<(String, String)>, u64, u64, Vec<(u8, u8, usize, usize)>);

fn edited_image() -> impl Strategy<Value = EditedImage> {
    let edit = (0u8..4, 0u8..4, any::<usize>(), 0..FRAME_ALPHABET.len());
    let entries = vec(("[a-z0-9]{0,3}", "[a-z0-9]{0,3}"), 0..4);
    (entries, 0u64..1000, 0u64..1000, vec(edit, 0..4))
}

fn build_image((entries, epoch, next_txid, edits): &EditedImage) -> Vec<u8> {
    let lines = entries.iter().map(|(k, v)| (k.as_str(), v.as_str()));
    let mut image = encode_checkpoint_entries(*epoch, *next_txid, lines);
    for &(what, region, at, byte) in edits {
        let len = image.len();
        let header_end = image.iter().position(|&b| b == b'\n').map_or(len, |i| i + 1);
        let trailer = image[..len - 1].iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
        let line_ends = [header_end - 1, len - 1];
        let (from, to) = [(0, header_end), (trailer, len), (0, len), (0, 2)][usize::from(region)];
        let at = if region == 3 { line_ends[at % 2] } else { from + at % (to - from) };
        match what {
            1 => image[at] = FRAME_ALPHABET[byte],
            2 => image.insert(at, FRAME_ALPHABET[byte]),
            3 => drop(image.remove(at)),
            _ => {}
        }
        if image.is_empty() {
            break;
        }
    }
    image
}

proptest! {
    // Each case takes microseconds; CI runs 4 096.
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn entries_equal_the_frozen_parser_on_noise(payload in noise()) {
        check(&payload);
    }

    #[test]
    fn entries_equal_the_frozen_parser_on_edited_lines(lines in edited()) {
        check(&build(&lines));
    }

    #[test]
    fn the_frame_and_decode_equal_the_frozen_ones_on_edited_images(image in edited_image()) {
        let image = build_image(&image);
        let framed = checkpoint_image(&image).map(|i| (i.epoch, i.next_txid, i.entries().collect()));
        let frozen = frozen::frame(&image).map(|(e, n, payload, _)| (e, n, frozen::entries(payload)));
        prop_assert_eq!(framed, frozen, "{:?}", String::from_utf8_lossy(&image));
        prop_assert_eq!(decode_checkpoint(&image), frozen::decode(&image));
    }
}

#[test]
fn the_edges_of_the_language() {
    for payload in [
        "",
        "\n",
        "S k v ;",
        "S k v ;\n\n",
        "S k v ;\r\n",
        "S k v ;\r",
        "S k v ; \n",
        "S   ;\n",
        "S  v ;\nS k  ;\n",
        "S ;\nS  ;\nS k;\n",
        "S k v w ;\n",
        "S\tk v ;\n",
        "S k\r v ;\n",
        "S é\u{2028} ; ;\n",
    ] {
        check(payload);
    }
    let payload = "S   ;\nS k v ;\r\nS k v ;\r";
    let image = format!("KVCP 1 1 {} ;\n{payload}KVEND 1 0 ;\n", payload.len());
    let image = checkpoint_image(image.as_bytes()).unwrap();
    assert_eq!(image.entries().collect::<Vec<_>>(), [Some(("", "")), Some(("k", "v")), None]);
}
