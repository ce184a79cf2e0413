//! `Rows`, the packed scan result, against the row list it packs.

use proptest::prelude::*;
use txfix_kvstore::Rows;

fn pack(rows: &[(String, String)]) -> Rows {
    rows.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect()
}

fn row_list() -> impl Strategy<Value = Vec<(String, String)>> {
    // A two-letter alphabet and empty strings, so that distinct row lists
    // often concatenate to the same text.
    proptest::collection::vec(("[ab]{0,3}", "[ab]{0,3}"), 0..6)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `iter` gives back exactly the pairs collected, in order, and
    /// `Debug` prints them as the list they are.
    #[test]
    fn iter_gives_back_the_rows_collected(rows in row_list()) {
        let packed = pack(&rows);
        let back: Vec<(&str, &str)> = packed.iter().collect();
        let want: Vec<(&str, &str)> = rows.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
        prop_assert_eq!(back, want);
        prop_assert_eq!((packed.len(), packed.is_empty()), (rows.len(), rows.is_empty()));
        prop_assert_eq!(format!("{packed:?}"), format!("{rows:?}"));
    }

    /// Equality is the row lists' equality, however the bytes are split.
    #[test]
    fn rows_are_equal_iff_their_row_lists_are(a in row_list(), b in row_list()) {
        prop_assert_eq!(pack(&a) == pack(&b), a == b);
    }
}

#[test]
fn rows_that_split_the_same_text_differently_differ() {
    let a = pack(&[("ab".into(), "c".into())]);
    let b = pack(&[("a".into(), "bc".into())]);
    assert_ne!(a, b);
    assert_eq!(pack(&[]), Rows::default());
}
