//! Bounded line reading for the line-delimited loops (`--serve` and
//! `--shard-worker`).
//!
//! [`BufRead::lines`] ends at the first line that is not UTF-8 and buffers
//! a line of any length. [`bounded_lines`] instead yields a
//! [`LineError`] for a non-UTF-8 or over-long line and goes on with the
//! next one, so a loop can answer the bad line in-band and keep its state.
//! Only end of input or a read error ends the iteration.

use std::fmt;
use std::io::{self, BufRead, ErrorKind, Read};
use std::str::Utf8Error;

/// The longest line either loop accepts, in bytes (64 MiB).
///
/// The largest legitimate line is a serve `scan` or `rescan` carrying a
/// whole program as one JSON string. The biggest program the repository
/// generates, the paper-shaped subject at scale 0.02, is about 4.5 MB of
/// source (4,459,040 to 4,486,356 bytes over the seeds tried), and
/// escaping it for JSON adds one byte per line (each newline becomes
/// `\n`): about 4.6 MB per request. The cap leaves fourteen times that for
/// larger programs, while bounding what one hostile line can make the
/// process buffer. Shard-worker job lines are a few hundred bytes.
pub const MAX_LINE_BYTES: usize = 64 << 20;

/// Why a line was refused. The line has been consumed either way.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LineError {
    /// The line is not UTF-8.
    NotUtf8(Utf8Error),
    /// The line is longer than the cap; its bytes past the cap were
    /// skipped without being buffered.
    TooLong {
        /// The cap, in bytes.
        cap: usize,
    },
}

impl fmt::Display for LineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LineError::NotUtf8(e) => write!(f, "line is not UTF-8 ({e})"),
            LineError::TooLong { cap } => write!(f, "line longer than {cap} bytes"),
        }
    }
}

/// Iterator over the lines of `input`, each at most `cap` bytes long (not
/// counting its `\n`), yielded without their `\n` or `\r\n`. See the
/// module docs.
pub fn bounded_lines<R: BufRead>(input: R, cap: usize) -> BoundedLines<R> {
    BoundedLines { input, cap }
}

/// The iterator returned by [`bounded_lines`].
#[derive(Debug)]
pub struct BoundedLines<R> {
    input: R,
    cap: usize,
}

impl<R: BufRead> Iterator for BoundedLines<R> {
    type Item = Result<String, LineError>;

    fn next(&mut self) -> Option<Self::Item> {
        let mut buf = Vec::new();
        let limit = self.cap as u64 + 1;
        match self.input.by_ref().take(limit).read_until(b'\n', &mut buf) {
            Ok(0) | Err(_) => return None,
            Ok(_) => {}
        }
        if buf.last() == Some(&b'\n') {
            buf.pop();
            if buf.last() == Some(&b'\r') {
                buf.pop();
            }
        } else if buf.len() > self.cap {
            if skip_line(&mut self.input).is_err() {
                return None;
            }
            return Some(Err(LineError::TooLong { cap: self.cap }));
        }
        Some(String::from_utf8(buf).map_err(|e| LineError::NotUtf8(e.utf8_error())))
    }
}

/// Consumes `input` up to and including the next `\n`, or to its end,
/// keeping none of it.
fn skip_line(input: &mut impl BufRead) -> io::Result<()> {
    loop {
        let chunk = match input.fill_buf() {
            Ok(chunk) => chunk,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if chunk.is_empty() {
            return Ok(());
        }
        match chunk.iter().position(|&b| b == b'\n') {
            Some(i) => {
                input.consume(i + 1);
                return Ok(());
            }
            None => {
                let n = chunk.len();
                input.consume(n);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufReader, Cursor};

    fn read_all(input: &[u8], cap: usize) -> Vec<Result<String, LineError>> {
        bounded_lines(Cursor::new(input.to_vec()), cap).collect()
    }

    #[test]
    fn reads_lines_like_std_lines() {
        let got = read_all(b"a\r\nbc\n\nlast", 8);
        let want: Vec<Result<String, LineError>> =
            ["a", "bc", "", "last"].map(|s| Ok(s.to_string())).into();
        assert_eq!(got, want);
        assert!(read_all(b"", 8).is_empty());
    }

    #[test]
    fn non_utf8_line_is_refused_and_reading_goes_on() {
        let got = read_all(b"ok\n\xff\nnext\n", 8);
        assert_eq!(got.len(), 3);
        assert_eq!(got[0], Ok("ok".to_string()));
        assert!(matches!(got[1], Err(LineError::NotUtf8(_))));
        assert_eq!(got[2], Ok("next".to_string()));
    }

    #[test]
    fn line_at_the_cap_is_read_and_one_past_it_is_skipped() {
        let too_long = Err(LineError::TooLong { cap: 4 });
        let got = read_all(b"abcd\nabcde\nxy\nabcdefghij", 4);
        assert_eq!(
            got,
            vec![
                Ok("abcd".to_string()),
                too_long.clone(),
                Ok("xy".to_string()),
                too_long,
            ]
        );
    }

    #[test]
    fn over_long_line_is_skipped_across_buffer_refills() {
        // A 2-byte reader buffer makes the skip span many refills, and a
        // cap of 3 keeps all but 4 bytes of the long line out of memory.
        let mut input = vec![b'x'; 1000];
        input.extend_from_slice(b"\nok\n");
        let reader = BufReader::with_capacity(2, Cursor::new(input));
        let got: Vec<_> = bounded_lines(reader, 3).collect();
        assert_eq!(
            got,
            vec![Err(LineError::TooLong { cap: 3 }), Ok("ok".to_string())]
        );
    }
}
