//! Torn-tail tolerant JSONL splitting.
//!
//! Append-only JSONL artifacts (the campaign checkpoint) follow one crash
//! model: every record is one `\n`-terminated line, appended with a single
//! `write_all`. A process killed mid-append (SIGKILL, power loss) can leave
//! at most one *unterminated* fragment at the end of the file — every line
//! that made it to its newline is intact. [`split_lines`] encodes exactly
//! that contract: it hands back the complete lines and, separately, the
//! torn tail, so loaders can replay everything durable and drop (but
//! count) the fragment instead of refusing the whole file.
//!
//! The splitter works on bytes, not `&str`: a torn write can cut a
//! multi-byte UTF-8 sequence in half, and `std::fs::read_to_string` would
//! reject the entire file for a defect confined to the tail. Complete
//! lines are decoded lossily (our own writers only emit valid UTF-8, so
//! this is an identity transform on intact files).

/// The result of splitting a JSONL byte stream at its newline boundaries.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct JsonlSplit {
    /// Every `\n`-terminated line, in file order, without its terminator.
    /// Blank lines are preserved (callers decide whether to skip them).
    pub lines: Vec<String>,
    /// The unterminated final fragment, if the file does not end in `\n`.
    /// `None` on a cleanly-terminated file; `Some` means the last append
    /// was torn.
    pub torn_tail: Option<String>,
}

impl JsonlSplit {
    /// Whether the file ended mid-record.
    pub fn is_torn(&self) -> bool {
        self.torn_tail.is_some()
    }
}

/// Splits `bytes` into complete (`\n`-terminated) lines plus the torn
/// unterminated tail, if any. `\r\n` terminators are tolerated (the `\r`
/// is stripped). An empty input yields no lines and no tail.
pub fn split_lines(bytes: &[u8]) -> JsonlSplit {
    let mut split = JsonlSplit::default();
    let mut start = 0usize;
    for (i, &b) in bytes.iter().enumerate() {
        if b == b'\n' {
            let mut line = &bytes[start..i];
            if line.last() == Some(&b'\r') {
                line = &line[..line.len() - 1];
            }
            split.lines.push(String::from_utf8_lossy(line).into_owned());
            start = i + 1;
        }
    }
    if start < bytes.len() {
        split.torn_tail = Some(String::from_utf8_lossy(&bytes[start..]).into_owned());
    }
    split
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_file_has_no_tail() {
        let s = split_lines(b"{\"a\":1}\n{\"b\":2}\n");
        assert_eq!(s.lines, vec!["{\"a\":1}", "{\"b\":2}"]);
        assert_eq!(s.torn_tail, None);
        assert!(!s.is_torn());
    }

    #[test]
    fn torn_tail_is_separated_not_fatal() {
        let s = split_lines(b"{\"a\":1}\n{\"b\":");
        assert_eq!(s.lines, vec!["{\"a\":1}"]);
        assert_eq!(s.torn_tail.as_deref(), Some("{\"b\":"));
        assert!(s.is_torn());
    }

    #[test]
    fn truncation_at_every_byte_boundary_keeps_prior_lines() {
        let full = b"{\"run\":0}\n{\"run\":1}\n{\"run\":2}\n";
        let second_nl = 19; // index of the newline ending the second line
        for cut in 0..full.len() {
            let s = split_lines(&full[..cut]);
            // Lines before the cut survive byte-identically; the fragment
            // after the last surviving newline is the tail (or nothing).
            let expect_lines = if cut <= 9 {
                0
            } else if cut <= second_nl {
                1
            } else {
                2
            };
            assert_eq!(s.lines.len(), expect_lines, "cut at byte {cut}");
            let last_nl = full[..cut].iter().rposition(|&b| b == b'\n');
            let tail_len = cut - last_nl.map(|i| i + 1).unwrap_or(0);
            assert_eq!(s.is_torn(), tail_len > 0, "cut at byte {cut}");
        }
        // The untruncated file splits cleanly.
        assert!(!split_lines(full).is_torn());
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        assert_eq!(split_lines(b""), JsonlSplit::default());
        let only_tail = split_lines(b"frag");
        assert!(only_tail.lines.is_empty());
        assert_eq!(only_tail.torn_tail.as_deref(), Some("frag"));
        // A lone newline is one empty complete line.
        let blank = split_lines(b"\n");
        assert_eq!(blank.lines, vec![""]);
        assert!(!blank.is_torn());
    }

    #[test]
    fn crlf_terminators_are_stripped() {
        let s = split_lines(b"{\"a\":1}\r\n{\"b\":2}\r\n");
        assert_eq!(s.lines, vec!["{\"a\":1}", "{\"b\":2}"]);
    }

    #[test]
    fn torn_multibyte_utf8_does_not_poison_complete_lines() {
        // "é" is 0xC3 0xA9; cut between the two bytes of a tail record.
        let mut bytes = b"{\"ok\":true}\n{\"s\":\"".to_vec();
        bytes.push(0xC3);
        let s = split_lines(&bytes);
        assert_eq!(s.lines, vec!["{\"ok\":true}"]);
        assert!(s.is_torn());
    }
}
