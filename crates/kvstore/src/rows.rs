//! [`Rows`]: what a scan returns, every key and value packed into one
//! buffer.

use std::fmt;

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

    /// The number of rows.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether there are no rows.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Every row as `(key, value)`, in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (&str, &str)> + '_ {
        (0..self.len()).map(|i| {
            let start = i.checked_sub(1).map_or(0, |prev| self.ends[prev].1);
            let (key_end, end) = self.ends[i];
            (&self.text[start..key_end], &self.text[key_end..end])
        })
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
