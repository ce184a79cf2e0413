//! [`Rows`]: key/value rows packed into one buffer — what a scan returns,
//! and each leaf of a shard's index ([`crate::index`]).

use std::fmt;
use std::ops::Range;

/// Key/value rows, owned and packed: the keys and values concatenated
/// into one `String`, plus each row's end offsets. A scan reserves both
/// buffers up front, so it allocates the same number of times whatever
/// the shard holds. A row list has exactly one packing, so two `Rows` are
/// equal iff their row lists are.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Rows {
    text: String,
    /// Per row, where its key ends and where its value ends in `text`.
    ends: Vec<(usize, usize)>,
}

impl Rows {
    /// Room for `rows` rows of `bytes` key and value bytes in all.
    pub(crate) fn with_capacity(rows: usize, bytes: usize) -> Rows {
        Rows { text: String::with_capacity(bytes), ends: Vec::with_capacity(rows) }
    }

    /// Append the row `(key, value)`.
    pub(crate) fn push(&mut self, key: &str, value: &str) {
        self.text.push_str(key);
        let key_end = self.text.len();
        self.text.push_str(value);
        self.ends.push((key_end, self.text.len()));
    }

    /// Append `src`'s rows `range`: one copy of their bytes, and their
    /// offsets rebased onto this buffer.
    pub(crate) fn extend_from(&mut self, src: &Rows, range: Range<usize>) {
        if range.is_empty() {
            return;
        }
        let (from, to, base) = (src.start(range.start), src.ends[range.end - 1].1, self.text.len());
        self.text.push_str(&src.text[from..to]);
        self.ends.extend(src.ends[range].iter().map(|&(k, v)| (k - from + base, v - from + base)));
    }

    /// Key and value bytes in all.
    pub(crate) fn bytes(&self) -> usize {
        self.text.len()
    }

    /// Where row `i` starts in `text`.
    fn start(&self, i: usize) -> usize {
        i.checked_sub(1).map_or(0, |prev| self.ends[prev].1)
    }

    /// Row `i`'s key, as bytes: they order as the `str` does, and slicing
    /// them checks no char boundary.
    pub(crate) fn key(&self, i: usize) -> &[u8] {
        &self.text.as_bytes()[self.start(i)..self.ends[i].0]
    }

    /// Row `i` as `(key, value)`.
    pub(crate) fn row(&self, i: usize) -> (&str, &str) {
        let (key_end, end) = self.ends[i];
        (&self.text[self.start(i)..key_end], &self.text[key_end..end])
    }

    /// The number of rows.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether there are no rows.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Every row as `(key, value)`, in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (&str, &str)> + Clone + '_ {
        (0..self.len()).map(|i| self.row(i))
    }
}

impl<'a> FromIterator<(&'a str, &'a str)> for Rows {
    fn from_iter<I: IntoIterator<Item = (&'a str, &'a str)>>(rows: I) -> Rows {
        let mut out = Rows::default();
        for (key, value) in rows {
            out.push(key, value);
        }
        out
    }
}

impl fmt::Debug for Rows {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}
