//! `records`, the log's one line parser, against a frozen copy of the
//! parser it replaced: `from_utf8` of the whole line, `split(' ')` and
//! `str::parse::<u64>`. The two must accept the same lines and yield the
//! same txid and record for each, so the log's language is the one every
//! existing log was written and read in.

use proptest::collection::vec;
use proptest::prelude::*;
use txfix_wal::{records, Record};

/// The reference: the line parser as it was before the byte-level one,
/// kept verbatim, with the token check it used.
mod frozen {
    use txfix_wal::Record;

    fn is_token(s: &str) -> bool {
        !s.is_empty() && s.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_')
    }

    pub fn records(bytes: &[u8]) -> Vec<Option<(u64, Record<'_>)>> {
        bytes.split(|&b| b == b'\n').filter(|line| !line.is_empty()).map(parse_line).collect()
    }

    fn parse_line(line: &[u8]) -> Option<(u64, Record<'_>)> {
        let mut tokens = std::str::from_utf8(line).ok()?.split(' ');
        let (kind, txid) = (tokens.next()?, tokens.next()?.parse().ok()?);
        let mut token = || tokens.next().filter(|t| is_token(t));
        let record = match kind {
            "P" => Record::Put(token()?, token()?),
            "D" => Record::Delete(token()?),
            "C" => Record::Commit,
            _ => return None,
        };
        (tokens.next() == Some(";") && tokens.next().is_none()).then_some((txid, record))
    }
}

/// The bytes a parser is most likely to get wrong: the format's own (kinds,
/// digits, the sign `str::parse` takes, the terminator, the separator), the
/// line ends, a crash hole's zero, and bytes that are not ASCII (a UTF-8
/// lead byte, a continuation byte, bytes that never occur in UTF-8).
const ALPHABET: &[u8] = b"PDCS0123456789+-;_ \r\n\0kv\x80\xc3\xa9\xff";

fn noise() -> impl Strategy<Value = Vec<u8>> {
    vec(0..ALPHABET.len(), 0..64).prop_map(|ix| ix.into_iter().map(|i| ALPHABET[i]).collect())
}

/// A txid as text: plain, with `+`, zero-padded to 20 digits, at the edge
/// of `u64` (20 digits, the last two overflowing), or 21 digits.
fn txid_text((form, n): (u8, u64)) -> String {
    match form {
        0 => n.to_string(),
        1 => format!("+{}", n % 1000),
        2 => format!("{:020}", n % 100_000),
        3 => (u128::from(u64::MAX) - 2 + u128::from(n % 5)).to_string(),
        4 => (10u128.pow(20) + u128::from(n)).to_string(),
        _ => (n % 20).to_string(),
    }
}

/// One well-formed line, from `(kind, txid, key, value)`.
type LineSpec = (u8, (u8, u64), String, String);

fn line() -> impl Strategy<Value = LineSpec> {
    (0u8..3, (0u8..6, any::<u64>()), "[A-Za-z0-9_]{1,6}", "[A-Za-z0-9_]{1,6}")
}

/// One edit: `(what, where, byte)` — 0 none, 1 replace, 2 insert (a space
/// half of the time), 3 delete.
type Edit = (u8, usize, usize);

fn edited_log() -> impl Strategy<Value = (Vec<LineSpec>, bool, Vec<Edit>)> {
    (vec(line(), 1..5), any::<bool>(), vec((0u8..4, any::<usize>(), 0..2 * ALPHABET.len()), 0..3))
}

fn build((lines, final_newline, edits): &(Vec<LineSpec>, bool, Vec<Edit>)) -> Vec<u8> {
    let mut log: Vec<u8> = lines
        .iter()
        .map(|(kind, txid, k, v)| {
            let txid = txid_text(*txid);
            match kind {
                0 => format!("P {txid} {k} {v} ;"),
                1 => format!("D {txid} {k} ;"),
                _ => format!("C {txid} ;"),
            }
        })
        .collect::<Vec<_>>()
        .join("\n")
        .into_bytes();
    if *final_newline {
        log.push(b'\n');
    }
    for &(what, at, byte) in edits {
        let byte = ALPHABET.get(byte).copied().unwrap_or(b' ');
        match what {
            1 if !log.is_empty() => {
                let len = log.len();
                log[at % len] = byte;
            }
            2 => log.insert(at % (log.len() + 1), byte),
            3 if !log.is_empty() => drop(log.remove(at % log.len())),
            _ => {}
        }
    }
    log
}

proptest! {
    // Each case takes microseconds; CI runs 4 096.
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn records_equals_the_frozen_parser_on_noise(bytes in noise()) {
        prop_assert_eq!(records(&bytes).collect::<Vec<_>>(), frozen::records(&bytes), "{:?}", bytes);
    }

    #[test]
    fn records_equals_the_frozen_parser_on_edited_lines(log in edited_log()) {
        let bytes = build(&log);
        prop_assert_eq!(records(&bytes).collect::<Vec<_>>(), frozen::records(&bytes), "{:?}", bytes);
    }
}

#[test]
fn the_edges_of_the_language() {
    let log = b"C +5 ;\nC 18446744073709551615 ;\nC 18446744073709551616 ;\n\
        C 000000000000000000007 ;\nC 1 ; \nC 1 ;\r\nC  1 ;\nC - ;\nC + ;\nP 2 k\xc3\xa9 v ;\nD 3 k_9 ;";
    let want = [
        Some((5, Record::Commit)),
        Some((u64::MAX, Record::Commit)),
        None,
        Some((7, Record::Commit)),
        None,
        None,
        None,
        None,
        None,
        None,
        Some((3, Record::Delete("k_9"))),
    ];
    assert_eq!(records(log).collect::<Vec<_>>(), want);
    assert_eq!(frozen::records(log), want);
}
