//! Campaign checkpoints: crash-safe progress snapshots with bit-exact
//! resume.
//!
//! A supervised campaign (see [`crate::supervisor`]) keeps a JSONL record
//! of every completed run — index, attempt count and either the run's
//! encoded result or its terminal error. Results are encoded as `f64`
//! **bit patterns** (hex), not decimal renderings, so a `--resume` replays
//! completed runs to bit-identical aggregate statistics. The header pins
//! the campaign seed, run count and the hash of the campaign's fault plan
//! ([`SupervisorOptions::faults`](crate::SupervisorOptions::faults)); a resume
//! under a different configuration is rejected instead of silently mixing
//! incompatible runs.
//!
//! While a campaign runs, new records are appended ([`Checkpoint::append`]),
//! so a campaign killed mid-append (the whole point of checkpoints) leaves
//! at worst a torn last line, which [`Checkpoint::load_tolerant`] drops.
//! Whole files go through a temp file + `std::fs::rename`
//! ([`Checkpoint::write_atomic`]). This crate is not on the solver
//! `std::fs` ban list precisely so campaign-level persistence can live
//! here.

use oxterm_telemetry::JsonWriter;

/// Values a supervised campaign can checkpoint: a fixed-width encoding to
/// `f64` words and back.
///
/// The encoding must be lossless (`decode(encode(x)) == x` bit-for-bit) —
/// resume equivalence depends on it.
pub trait CheckpointState: Sized {
    /// Encodes the value as `f64` words.
    fn encode(&self) -> Vec<f64>;
    /// Decodes a value from `encode`'s output; `None` on shape mismatch.
    fn decode(words: &[f64]) -> Option<Self>;
}

impl CheckpointState for f64 {
    fn encode(&self) -> Vec<f64> {
        vec![*self]
    }

    fn decode(words: &[f64]) -> Option<Self> {
        match words {
            [x] => Some(*x),
            _ => None,
        }
    }
}

/// Campaign identity pinned into every checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointHeader {
    /// Campaign seed (`MonteCarlo::seed`).
    pub seed: u64,
    /// Total runs in the campaign.
    pub runs: u64,
    /// [`oxterm_chaos::FaultPlan::hash`] of the campaign's fault plan, 0
    /// when it has none.
    pub fault_plan_hash: u64,
}

/// One completed run: result words (ok) or terminal error (failed).
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Campaign run index.
    pub run: u64,
    /// Attempts the run consumed (1 = first try succeeded).
    pub attempts: u64,
    /// Encoded result, or the final error string.
    pub outcome: Result<Vec<f64>, String>,
}

/// Result of a torn-tail-tolerant checkpoint load.
#[derive(Debug, Clone, PartialEq)]
pub struct TolerantLoad {
    /// The records recovered from the complete lines.
    pub checkpoint: Checkpoint,
    /// Whether an unterminated torn tail was dropped.
    pub dropped_tail: bool,
}

/// A parsed (or in-construction) campaign checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Campaign identity.
    pub header: CheckpointHeader,
    /// Completed runs, in file order.
    pub records: Vec<RunRecord>,
}

impl Checkpoint {
    /// An empty checkpoint for the given campaign identity.
    pub fn new(header: CheckpointHeader) -> Self {
        Checkpoint {
            header,
            records: Vec::new(),
        }
    }

    /// Serializes as JSONL: one header line, one line per completed run.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        {
            let mut w = JsonWriter::new();
            w.begin_object();
            w.string("artifact", "oxterm-mc-checkpoint");
            w.u64("schema_version", 1);
            w.u64("seed", self.header.seed);
            w.u64("runs", self.header.runs);
            w.u64("fault_plan_hash", self.header.fault_plan_hash);
            w.end_object();
            out.push_str(&w.finish());
            out.push('\n');
        }
        for rec in &self.records {
            push_record(&mut out, rec);
        }
        out
    }

    /// Parses [`Checkpoint::to_jsonl`] output.
    pub fn parse(text: &str) -> Result<Checkpoint, String> {
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        let head = lines.next().ok_or("checkpoint is empty")?;
        if field_str(head, "artifact").as_deref() != Some("oxterm-mc-checkpoint") {
            return Err("not an oxterm-mc-checkpoint artifact".into());
        }
        if field_u64(head, "schema_version") != Some(1) {
            return Err("unsupported checkpoint schema version".into());
        }
        let header = CheckpointHeader {
            seed: field_u64(head, "seed").ok_or("header missing seed")?,
            runs: field_u64(head, "runs").ok_or("header missing runs")?,
            fault_plan_hash: field_u64(head, "fault_plan_hash")
                .ok_or("header missing fault_plan_hash")?,
        };
        let mut records = Vec::new();
        for (n, line) in lines.enumerate() {
            let run =
                field_u64(line, "run").ok_or_else(|| format!("record {n}: missing run index"))?;
            let attempts = field_u64(line, "attempts")
                .ok_or_else(|| format!("record {n}: missing attempts"))?;
            let outcome = match field_bool(line, "ok") {
                Some(true) => {
                    let mut words = Vec::new();
                    for hex in field_str_array(line, "bits")
                        .ok_or_else(|| format!("record {n}: missing bits"))?
                    {
                        let raw = hex.strip_prefix("0x").unwrap_or(&hex);
                        let bits = u64::from_str_radix(raw, 16)
                            .map_err(|_| format!("record {n}: bad bit pattern {hex}"))?;
                        words.push(f64::from_bits(bits));
                    }
                    Ok(words)
                }
                Some(false) => Err(field_str(line, "error")
                    .ok_or_else(|| format!("record {n}: failed run missing error"))?),
                None => return Err(format!("record {n}: missing ok flag")),
            };
            records.push(RunRecord {
                run,
                attempts,
                outcome,
            });
        }
        Ok(Checkpoint { header, records })
    }

    /// Loads and parses a checkpoint file.
    pub fn load(path: &str) -> Result<Checkpoint, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("could not read checkpoint {path}: {e}"))?;
        Checkpoint::parse(&text)
    }

    /// Parses checkpoint bytes tolerating a torn final record: an
    /// unterminated tail (a record whose append never reached its
    /// newline — SIGKILL mid-write) is dropped and reported instead of
    /// failing the load. Complete lines still parse strictly; the split
    /// itself is the [`oxterm_telemetry::jsonl`] helper.
    pub fn parse_tolerant(bytes: &[u8]) -> Result<TolerantLoad, String> {
        let split = oxterm_telemetry::jsonl::split_lines(bytes);
        let text = split.lines.join("\n");
        let checkpoint = Checkpoint::parse(&text)?;
        Ok(TolerantLoad {
            checkpoint,
            dropped_tail: split.is_torn(),
        })
    }

    /// [`Checkpoint::parse_tolerant`] over a file.
    pub fn load_tolerant(path: &str) -> Result<TolerantLoad, String> {
        let bytes =
            std::fs::read(path).map_err(|e| format!("could not read checkpoint {path}: {e}"))?;
        Checkpoint::parse_tolerant(&bytes)
    }

    /// Writes the checkpoint atomically: temp file in the same directory,
    /// then `rename` over the target.
    pub fn write_atomic(&self, path: &str) -> Result<(), String> {
        if let Some(parent) = std::path::Path::new(path).parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)
                    .map_err(|e| format!("could not create {}: {e}", parent.display()))?;
            }
        }
        let tmp = format!("{path}.tmp");
        std::fs::write(&tmp, self.to_jsonl()).map_err(|e| format!("could not write {tmp}: {e}"))?;
        std::fs::rename(&tmp, path).map_err(|e| format!("could not rename {tmp} -> {path}: {e}"))
    }

    /// Appends `records` to the checkpoint file at `path`, one line each.
    /// A kill mid-append leaves at worst a torn last line, which
    /// [`Checkpoint::load_tolerant`] drops.
    pub fn append(path: &str, records: &[RunRecord]) -> Result<(), String> {
        use std::io::Write;
        let mut text = String::new();
        for rec in records {
            push_record(&mut text, rec);
        }
        std::fs::OpenOptions::new()
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(text.as_bytes()))
            .map_err(|e| format!("could not append to {path}: {e}"))
    }

    /// FNV-1a digest over the header and every record (bit patterns of the
    /// result words included) — a cheap identity for "same completed set".
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        eat(&self.header.seed.to_le_bytes());
        eat(&self.header.runs.to_le_bytes());
        eat(&self.header.fault_plan_hash.to_le_bytes());
        for rec in &self.records {
            eat(&rec.run.to_le_bytes());
            eat(&rec.attempts.to_le_bytes());
            match &rec.outcome {
                Ok(words) => {
                    eat(&[1]);
                    for x in words {
                        eat(&x.to_bits().to_le_bytes());
                    }
                }
                Err(e) => {
                    eat(&[0]);
                    eat(e.as_bytes());
                }
            }
        }
        h
    }
}

/// Appends one run's JSONL line to `out`.
fn push_record(out: &mut String, rec: &RunRecord) {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.u64("run", rec.run);
    w.u64("attempts", rec.attempts);
    match &rec.outcome {
        Ok(words) => {
            w.bool("ok", true);
            w.begin_array_key("bits");
            for x in words {
                w.array_string(&format!("{:#018x}", x.to_bits()));
            }
            w.end_array();
        }
        Err(e) => {
            w.bool("ok", false);
            w.string("error", e);
        }
    }
    w.end_object();
    out.push_str(&w.finish());
    out.push('\n');
}

// --- minimal flat-JSON field extraction (we only parse our own writer's
// output, so fields are `"key":value` with JsonWriter's escaping) ---------

fn field_pos(line: &str, key: &str) -> Option<usize> {
    let pat = format!("\"{key}\":");
    line.find(&pat).map(|i| i + pat.len())
}

fn field_u64(line: &str, key: &str) -> Option<u64> {
    let rest = &line[field_pos(line, key)?..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn field_bool(line: &str, key: &str) -> Option<bool> {
    let rest = &line[field_pos(line, key)?..];
    if rest.starts_with("true") {
        Some(true)
    } else if rest.starts_with("false") {
        Some(false)
    } else {
        None
    }
}

/// Reads the JSON string starting at `rest` (which must begin with `"`),
/// returning the unescaped value and the index just past the closing quote.
fn read_string(rest: &str) -> Option<(String, usize)> {
    let bytes = rest.as_bytes();
    if bytes.first() != Some(&b'"') {
        return None;
    }
    let mut out = String::new();
    let mut chars = rest.char_indices().skip(1);
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => return Some((out, i + 1)),
            '\\' => match chars.next()?.1 {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                '/' => out.push('/'),
                'n' => out.push('\n'),
                't' => out.push('\t'),
                'r' => out.push('\r'),
                'b' => out.push('\u{0008}'),
                'f' => out.push('\u{000C}'),
                'u' => {
                    let mut code = 0u32;
                    for _ in 0..4 {
                        code = code * 16 + chars.next()?.1.to_digit(16)?;
                    }
                    out.push(char::from_u32(code)?);
                }
                _ => return None,
            },
            c => out.push(c),
        }
    }
    None
}

fn field_str(line: &str, key: &str) -> Option<String> {
    read_string(&line[field_pos(line, key)?..]).map(|(s, _)| s)
}

fn field_str_array(line: &str, key: &str) -> Option<Vec<String>> {
    let rest = &line[field_pos(line, key)?..];
    let mut rest = rest.strip_prefix('[')?;
    let mut out = Vec::new();
    loop {
        rest = rest.trim_start_matches(',');
        if let Some(stripped) = rest.strip_prefix(']') {
            let _ = stripped;
            return Some(out);
        }
        let (s, consumed) = read_string(rest)?;
        out.push(s);
        rest = &rest[consumed..];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        let mut cp = Checkpoint::new(CheckpointHeader {
            seed: 0xA11,
            runs: 4,
            fault_plan_hash: 0xDEAD_BEEF_0123_4567,
        });
        cp.records.push(RunRecord {
            run: 0,
            attempts: 1,
            outcome: Ok(vec![1.5, -0.0, f64::MIN_POSITIVE]),
        });
        cp.records.push(RunRecord {
            run: 2,
            attempts: 3,
            outcome: Err("chaos: injected Newton stall \"quoted\"\nline2".into()),
        });
        cp
    }

    #[test]
    fn jsonl_round_trip_is_exact() {
        let cp = sample();
        let parsed = Checkpoint::parse(&cp.to_jsonl()).expect("parses");
        assert_eq!(cp, parsed);
        assert_eq!(cp.digest(), parsed.digest());
    }

    #[test]
    fn bit_patterns_survive_round_trip() {
        // Values that decimal formatting would mangle.
        let tricky = [
            0.1 + 0.2,
            f64::MIN_POSITIVE,
            1.0 / 3.0,
            -0.0,
            6.02e-23,
            f64::MAX,
        ];
        let mut cp = Checkpoint::new(CheckpointHeader {
            seed: 1,
            runs: 1,
            fault_plan_hash: 0,
        });
        cp.records.push(RunRecord {
            run: 0,
            attempts: 1,
            outcome: Ok(tricky.to_vec()),
        });
        let parsed = Checkpoint::parse(&cp.to_jsonl()).expect("parses");
        let words = parsed.records[0].outcome.as_ref().expect("ok record");
        for (a, b) in tricky.iter().zip(words) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn rejects_foreign_or_torn_input() {
        assert!(Checkpoint::parse("").is_err());
        assert!(Checkpoint::parse("{\"artifact\":\"something-else\"}").is_err());
        let cp = sample();
        let jsonl = cp.to_jsonl();
        // Drop the header line entirely.
        let torn: String = jsonl.lines().skip(1).collect::<Vec<_>>().join("\n");
        assert!(Checkpoint::parse(&torn).is_err());
    }

    #[test]
    fn f64_checkpoint_state_is_lossless() {
        for x in [0.1 + 0.2, -0.0, f64::INFINITY, 1.0 / 3.0] {
            let decoded = f64::decode(&x.encode()).expect("decodes");
            assert_eq!(x.to_bits(), decoded.to_bits());
        }
        assert!(f64::decode(&[]).is_none());
        assert!(f64::decode(&[1.0, 2.0]).is_none());
    }

    #[test]
    fn write_atomic_then_load() {
        let dir = std::env::temp_dir().join(format!(
            "oxterm_ckpt_test_{}_{}",
            std::process::id(),
            0xA11u64
        ));
        let path = dir.join("checkpoint.jsonl");
        let path = path.to_string_lossy().to_string();
        let cp = sample();
        cp.write_atomic(&path).expect("writes");
        let loaded = Checkpoint::load(&path).expect("loads");
        assert_eq!(cp, loaded);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
