//! Checkpoint journal, canonical-hash memo cache, and the one item
//! driver both campaign types run on.
//!
//! [`run_items`] drives every item campaign in the workspace — the fault
//! campaign ([`run_campaign`]) and the Monte-Carlo scatter — through one
//! loop: journal replay, lane-aligned chunking, executor fan-out, panic
//! policy and journalling. A campaign configured with
//! [`CampaignConfig::checkpoint`] (or a scatter with a journal path)
//! hands the driver a [`Memo`]: an open journal plus one canonical
//! content hash per item, covering exactly what the item simulates — the
//! injected test-bench netlist ([`clocksense_netlist::canonical_form`])
//! plus a fingerprint of every option that can influence the result
//! ([`SimOptions`], clocks, detection criteria, retry policy). The
//! driver replays the journal first: items whose hash already carries a
//! record are skipped entirely (a *memo hit*), and only chunks holding a
//! miss are handed to the executor — so an interrupted campaign resumes
//! where it died, an unchanged campaign is pure cache hits, and editing
//! one device's value re-simulates only the variants whose hashes moved.
//!
//! Replay is chunk-granular at the *original* chunk boundaries: the batch
//! kernel marches the union breakpoint grid of a chunk's members, so a
//! chunk with any miss re-runs whole and a resumed batched campaign
//! reproduces the uninterrupted one bit for bit.
//!
//! # File format and atomicity
//!
//! The journal is a line-oriented text file:
//!
//! ```text
//! clocksense-journal/v1
//! <hash:016x>\t<tag>\t<field>\t<field>...
//! ```
//!
//! Fields are tab-separated with `\\`/`\t`/`\n`/`\r` escaped, so failure
//! details (panic messages, solver diagnostics) survive verbatim. Every
//! flush rewrites the whole journal to a sibling `*.tmp` file, syncs it,
//! and atomically renames it over the real path: a `SIGKILL` at any
//! instant leaves either the previous journal or the new one, never a
//! torn file. The loader is additionally lenient — a missing file or a
//! foreign header is an empty journal (every item simply misses), a
//! torn final line (no terminator) is dropped, and a malformed
//! *interior* line — bit-flipped media, an editor accident — is skipped
//! and tallied under `checkpoint.records_corrupt` instead of aborting
//! the replay: corruption costs exactly the records it touched, which
//! simply re-simulate as memo misses.
//!
//! A record is journalled only once it is *final*: the memo's encoder
//! declines a record a later pass will replace (a campaign's provisional
//! inconclusive before its retry pass), so a resume can never replay a
//! pre-retry verdict that the uninterrupted run would have overwritten.
//!
//! [`run_campaign`]: crate::run_campaign
//! [`CampaignConfig::checkpoint`]: crate::CampaignConfig::checkpoint
//! [`SimOptions`]: clocksense_spice::SimOptions

use std::collections::HashMap;
use std::fmt::Write as _;
use std::fs;
use std::io::{self, Write as _};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use clocksense_exec::Executor;
use clocksense_netlist::f64_bits;
use clocksense_spice::{IntegrationMethod, SimOptions, SolverKind, TimestepControl};
use clocksense_telemetry::Counter;

use crate::campaign::{CampaignConfig, FailureInfo, FailureKind, FaultRecord};
use crate::detect::DetectionOutcome;
use crate::model::Fault;

/// Version header leading every journal file. A journal with any other
/// first line is treated as empty, so format changes degrade to memo
/// misses instead of misreads.
pub const JOURNAL_VERSION: &str = "clocksense-journal/v1";

/// Record tag used for campaign fault items.
pub const TAG_FAULT: &str = "fault";

/// Record tag used for Monte-Carlo scatter samples.
pub const TAG_MC: &str = "mc";

fn escape(field: &str) -> String {
    let mut out = String::with_capacity(field.len());
    for c in field.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out
}

fn unescape(field: &str) -> String {
    let mut out = String::with_capacity(field.len());
    let mut chars = field.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('\\') => out.push('\\'),
            Some(other) => out.push(other),
            None => {}
        }
    }
    out
}

/// Parses the 16-hex-digit bit pattern written by
/// [`f64_bits`](clocksense_netlist::f64_bits) back into an `f64`.
pub fn parse_f64_bits(field: &str) -> Option<f64> {
    u64::from_str_radix(field, 16).ok().map(f64::from_bits)
}

/// One parsed journal line.
#[derive(Debug, Clone)]
struct Entry {
    hash: u64,
    tag: String,
    fields: Vec<String>,
}

/// Parses one newline-stripped journal line; `None` marks a malformed
/// (corrupt) line the loader skips and counts.
fn parse_entry(line: &str) -> Option<Entry> {
    let mut parts = line.split('\t');
    let (hash, tag) = (parts.next()?, parts.next()?);
    // The hash field is always exactly 16 hex digits; anything else —
    // including a flipped digit that shortened or lengthened it — is
    // corruption, not a record.
    if hash.len() != 16 || tag.is_empty() {
        return None;
    }
    let hash = u64::from_str_radix(hash, 16).ok()?;
    Some(Entry {
        hash,
        tag: unescape(tag),
        fields: parts.map(unescape).collect(),
    })
}

/// Append-only, atomically-flushed campaign journal.
///
/// Lookups return the *latest* record for a hash; appends rewrite the
/// whole file through a temp-file+rename, which keeps every flush
/// atomic at the cost of O(journal) bytes per record — the right trade
/// for campaign-sized universes where one fault's simulation dwarfs one
/// file rewrite.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    entries: Vec<Entry>,
    latest: HashMap<u64, usize>,
}

impl Journal {
    /// Opens (or conceptually creates) the journal at `path`.
    ///
    /// A missing file or a file with a foreign header loads as an empty
    /// journal; a torn (unterminated) tail costs only the records
    /// behind it; a malformed interior line is skipped and tallied
    /// under the lazily-scoped `checkpoint.records_corrupt` counter, so
    /// bit-flipped media degrades to memo misses rather than aborting
    /// the replay.
    pub fn open(path: impl Into<PathBuf>) -> io::Result<Journal> {
        let path = path.into();
        let mut journal = Journal {
            path,
            entries: Vec::new(),
            latest: HashMap::new(),
        };
        let mut text = match fs::read_to_string(&journal.path) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(journal),
            Err(e) => return Err(e),
        };
        // Chaos hook: an armed plan may truncate or bit-flip the loaded
        // text here, simulating media corruption between runs.
        clocksense_chaos::journal_load_hook(&mut text);
        // Only newline-terminated lines count: a writer that crashed
        // mid-append (without the atomic rename) leaves a torn final
        // line, recognisable precisely by its missing terminator.
        let mut lines: Vec<&str> = text.split('\n').collect();
        lines.pop();
        let mut lines = lines.into_iter();
        if lines.next() != Some(JOURNAL_VERSION) {
            return Ok(journal);
        }
        let mut corrupt = 0u64;
        for line in lines {
            let Some(entry) = parse_entry(line) else {
                corrupt += 1;
                continue;
            };
            journal.latest.insert(entry.hash, journal.entries.len());
            journal.entries.push(entry);
        }
        if corrupt > 0 {
            clocksense_telemetry::global()
                .scope("checkpoint")
                .counter("records_corrupt")
                .add(corrupt);
        }
        Ok(journal)
    }

    /// The journal's on-disk path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of loaded + appended records.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the journal holds no records.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The latest record stored under `hash`, if it carries `tag`.
    pub fn lookup(&self, hash: u64, tag: &str) -> Option<&[String]> {
        let &i = self.latest.get(&hash)?;
        let entry = &self.entries[i];
        (entry.tag == tag).then_some(entry.fields.as_slice())
    }

    /// Appends one record and atomically flushes the journal to disk.
    ///
    /// Bumps the lazily-scoped `checkpoint.records_written` counter, so
    /// runs that never touch a journal keep their telemetry snapshots
    /// byte-identical.
    pub fn append(&mut self, hash: u64, tag: &str, fields: &[String]) -> io::Result<()> {
        let entry = Entry {
            hash,
            tag: tag.to_string(),
            fields: fields.to_vec(),
        };
        self.latest.insert(hash, self.entries.len());
        self.entries.push(entry);
        self.flush()?;
        clocksense_telemetry::global()
            .scope("checkpoint")
            .counter("records_written")
            .incr();
        Ok(())
    }

    fn flush(&self) -> io::Result<()> {
        let mut text = String::with_capacity(64 * (self.entries.len() + 1));
        text.push_str(JOURNAL_VERSION);
        text.push('\n');
        for entry in &self.entries {
            let _ = write!(text, "{:016x}\t{}", entry.hash, escape(&entry.tag));
            for field in &entry.fields {
                text.push('\t');
                text.push_str(&escape(field));
            }
            text.push('\n');
        }
        let file_name = self
            .path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| "journal".to_string());
        let tmp = self.path.with_file_name(format!("{file_name}.tmp"));
        // Chaos hook: an armed plan may kill this flush — the temp file
        // receives only a prefix of the bytes and the rename never
        // happens, exactly the on-disk state a SIGKILL here leaves. The
        // error aborts the campaign the way the signal would have.
        if let Some(keep) = clocksense_chaos::flush_kill_hook(text.len()) {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(&text.as_bytes()[..keep.min(text.len())])?;
            return Err(io::Error::new(
                io::ErrorKind::Interrupted,
                "chaos: journal flush killed before rename",
            ));
        }
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(text.as_bytes())?;
            f.sync_all()?;
        }
        fs::rename(&tmp, &self.path)
    }
}

/// The journal side of [`run_items`]: an open journal, the tag and
/// per-item hashes the records live under, and the caller's codec.
pub struct Memo<'a, T, E> {
    journal: Arc<Mutex<Journal>>,
    tag: &'static str,
    hashes: Vec<u64>,
    replays: bool,
    decode: &'a (dyn Fn(usize, &[String]) -> Option<T> + Sync),
    encode: &'a (dyn Fn(&T) -> Option<Vec<String>> + Sync),
    error: fn(String) -> E,
}

impl<'a, T, E> Memo<'a, T, E> {
    /// Opens the journal at `path` for items keyed by `hashes` (one per
    /// item) under `tag`. `decode(i, fields)` rebuilds item `i`'s result,
    /// cross-checked against the item (`None` is a memo miss);
    /// `encode(result)` gives its fields, or `None` while a later pass may
    /// still replace it (the result is not final yet).
    ///
    /// # Errors
    ///
    /// Journal I/O failures, here and on every later append, surface as
    /// `error("<path>: <io error>")`.
    pub fn open(
        path: &Path,
        tag: &'static str,
        hashes: Vec<u64>,
        decode: &'a (dyn Fn(usize, &[String]) -> Option<T> + Sync),
        encode: &'a (dyn Fn(&T) -> Option<Vec<String>> + Sync),
        error: fn(String) -> E,
    ) -> Result<Self, E> {
        let journal = Journal::open(path).map_err(|e| error(format!("{}: {e}", path.display())))?;
        Ok(Memo {
            journal: Arc::new(Mutex::new(journal)),
            tag,
            hashes,
            replays: true,
            decode,
            encode,
            error,
        })
    }

    /// A journal-only view of `items` (indices into this memo) for a
    /// later pass over them: item `k` of the view journals under
    /// `items[k]`'s hash in the same journal, and nothing replays.
    pub fn select(&self, items: &[usize]) -> Memo<'a, T, E> {
        Memo {
            journal: Arc::clone(&self.journal),
            tag: self.tag,
            hashes: items.iter().map(|&i| self.hashes[i]).collect(),
            replays: false,
            decode: self.decode,
            encode: self.encode,
            error: self.error,
        }
    }

    // Appends leave the journal consistent at every step, so a worker
    // that panicked while holding the lock poisons nothing.
    fn journal(&self) -> MutexGuard<'_, Journal> {
        self.journal.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Journals item `i`'s result once it is final.
    fn finish(&self, i: usize, result: Result<T, E>) -> Result<T, E> {
        let value = result?;
        if let Some(fields) = (self.encode)(&value) {
            let mut journal = self.journal();
            journal
                .append(self.hashes[i], self.tag, &fields)
                .map_err(|e| (self.error)(format!("{}: {e}", journal.path().display())))?;
        }
        Ok(value)
    }
}

/// Runs `items` items in chunks of `chunk` (`0` or `1`: one item each)
/// over `executor` and returns their results in item order; the first
/// error in item order aborts.
///
/// * **Replay.** With a `memo` that replays (not a
///   [`select`](Memo::select) view), journalled items are decoded first.
///   A chunk replays only whole — one miss demotes every member, and the
///   chunk re-runs on the grid the uninterrupted run used. The lazily
///   created `checkpoint.*` counters tally items, hits and misses.
/// * **Set-up.** `evaluator` builds the chunk evaluator only when some
///   chunk is left to run, so shared set-up (a campaign's fault-free
///   baseline) costs nothing on a fully journalled re-run.
/// * **Schedule.** Only chunks with a miss go to
///   [`Executor::run`]; `ran` counts their items. The evaluator returns
///   one result per item of the range it is given.
/// * **Journal.** Each result the memo calls final is appended as soon
///   as its chunk completes.
/// * **Panics.** A panicking chunk wider than one item re-runs its items
///   one at a time, so only an item that panics on its own — or one the
///   evaluator returned no result for — takes `on_panic(item, message)`.
///
/// # Errors
///
/// The evaluator's set-up error, the first per-item error, or a journal
/// append failure.
pub fn run_items<T, E, F>(
    items: usize,
    chunk: usize,
    memo: Option<&Memo<'_, T, E>>,
    executor: &Executor,
    ran: &Counter,
    evaluator: impl FnOnce() -> Result<F, E>,
    on_panic: impl Fn(usize, String) -> Result<T, E>,
) -> Result<Vec<T>, E>
where
    T: Send,
    E: Send,
    F: Fn(Range<usize>) -> Vec<Result<T, E>> + Sync,
{
    let chunk = chunk.max(1);
    let mut slots: Vec<Option<Result<T, E>>> = (0..items).map(|_| None).collect();
    if let Some(memo) = memo.filter(|m| m.replays) {
        let journal = memo.journal();
        for (i, slot) in slots.iter_mut().enumerate() {
            *slot = journal
                .lookup(memo.hashes[i], memo.tag)
                .and_then(|fields| (memo.decode)(i, fields))
                .map(Ok);
        }
        drop(journal);
        for members in slots.chunks_mut(chunk) {
            if members.iter().any(Option::is_none) {
                members.fill_with(|| None);
            }
        }
        let hits = slots.iter().filter(|s| s.is_some()).count() as u64;
        let scope = clocksense_telemetry::global().scope("checkpoint");
        scope.counter("items_total").add(items as u64);
        scope.counter("memo_hits").add(hits);
        scope.counter("memo_misses").add(items as u64 - hits);
        scope.counter("records_replayed").add(hits);
    }
    let mut work: Vec<Range<usize>> = (0..items)
        .step_by(chunk)
        .map(|start| start..(start + chunk).min(items))
        .filter(|range| slots[range.clone()].iter().any(Option::is_none))
        .collect();
    ran.add(work.iter().map(ExactSizeIterator::len).sum::<usize>() as u64);
    let finish = |i: usize, result: Result<T, E>| match memo {
        Some(memo) => memo.finish(i, result),
        None => result,
    };
    if !work.is_empty() {
        let eval = evaluator()?;
        while !work.is_empty() {
            let outcomes = executor.run(work.len(), |k| {
                let range = work[k].clone();
                let results = eval(range.clone());
                range
                    .zip(results)
                    .map(|(i, result)| (i, finish(i, result)))
                    .collect::<Vec<_>>()
            });
            let mut singles = Vec::new();
            for (range, outcome) in work.into_iter().zip(outcomes) {
                match outcome {
                    Ok(results) => {
                        for (i, result) in results {
                            slots[i] = Some(result);
                        }
                    }
                    Err(_) if range.len() > 1 => singles.extend(range.map(|i| i..i + 1)),
                    Err(panic) => {
                        let i = range.start;
                        slots[i] = Some(finish(i, on_panic(i, panic.message)));
                    }
                }
            }
            work = singles;
        }
    }
    let lost = |i: usize| finish(i, on_panic(i, "the evaluator returned no result".into()));
    slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| slot.unwrap_or_else(|| lost(i)))
        .collect()
}

fn duration_field(d: Option<std::time::Duration>) -> String {
    match d {
        Some(d) => format!("{}", d.as_nanos()),
        None => "-".to_string(),
    }
}

/// Fingerprint of every [`SimOptions`] field that can influence a
/// simulation result. The `deadline` token is deliberately excluded: it
/// is per-item wall-clock state, covered by the campaign fingerprint's
/// `item_deadline` budget instead.
pub fn sim_options_fingerprint(sim: &SimOptions) -> String {
    let method = match sim.method {
        IntegrationMethod::Trapezoidal => "trap",
        IntegrationMethod::BackwardEuler => "be",
    };
    let timestep = match sim.timestep {
        TimestepControl::Fixed => "fixed".to_string(),
        TimestepControl::Adaptive { tstep_max, lte_tol } => {
            format!("adaptive,{},{}", f64_bits(tstep_max), f64_bits(lte_tol))
        }
    };
    let solver = match sim.solver {
        SolverKind::Dense => "dense",
        SolverKind::Sparse => "sparse",
    };
    format!(
        "sim;reltol={};vntol={};abstol={};gmin={};iters={};tstep={};tstep_min={};method={method};timestep={timestep};solver={solver};damping={};rescue={};batch={}",
        f64_bits(sim.reltol),
        f64_bits(sim.vntol),
        f64_bits(sim.abstol),
        f64_bits(sim.gmin),
        sim.max_newton_iters,
        f64_bits(sim.tstep),
        f64_bits(sim.tstep_min),
        f64_bits(sim.newton_damping),
        sim.rescue,
        sim.batch,
    )
}

/// Fingerprint of everything besides the injected netlist that decides a
/// campaign item's record: solver options, clock stimulus, detection
/// criteria (with the sensor's actual logic threshold `v_th`), IDDQ
/// patterns, skew check, deadline budget and retry policy. Worker-thread
/// count is excluded — results are thread-count invariant by design.
pub fn campaign_fingerprint(cfg: &CampaignConfig, v_th: f64) -> String {
    let mut fp = sim_options_fingerprint(&cfg.sim);
    let c = &cfg.clocks;
    let _ = write!(
        fp,
        "|clocks;{};{};{};{};{};{}",
        f64_bits(c.vdd),
        f64_bits(c.delay),
        f64_bits(c.slew),
        f64_bits(c.width),
        f64_bits(c.period),
        f64_bits(c.skew),
    );
    let _ = write!(
        fp,
        "|criteria;v_th={};t_hold={};iddq={}",
        f64_bits(v_th),
        f64_bits(cfg.criteria.t_hold),
        f64_bits(cfg.criteria.iddq_threshold),
    );
    fp.push_str("|iddq_patterns");
    for &(a, b) in &cfg.iddq_patterns {
        let _ = write!(fp, ";{},{}", f64_bits(a), f64_bits(b));
    }
    let _ = write!(
        fp,
        "|skew_check={}",
        cfg.skew_check.map_or("-".to_string(), f64_bits),
    );
    let _ = write!(
        fp,
        "|deadline={};retry={}",
        duration_field(cfg.item_deadline),
        cfg.retry,
    );
    fp
}

fn outcome_field(outcome: DetectionOutcome) -> &'static str {
    match outcome {
        DetectionOutcome::DetectedLogic => "logic",
        DetectionOutcome::DetectedIddq => "iddq",
        DetectionOutcome::Undetected => "undetected",
        DetectionOutcome::Inconclusive => "inconclusive",
    }
}

fn parse_outcome(field: &str) -> Option<DetectionOutcome> {
    Some(match field {
        "logic" => DetectionOutcome::DetectedLogic,
        "iddq" => DetectionOutcome::DetectedIddq,
        "undetected" => DetectionOutcome::Undetected,
        "inconclusive" => DetectionOutcome::Inconclusive,
        _ => return None,
    })
}

fn failure_kind_field(kind: FailureKind) -> &'static str {
    match kind {
        FailureKind::Panic => "panic",
        FailureKind::NonConvergence => "non-convergence",
        FailureKind::Deadline => "deadline",
        FailureKind::Other => "other",
    }
}

fn parse_failure_kind(field: &str) -> Option<FailureKind> {
    Some(match field {
        "panic" => FailureKind::Panic,
        "non-convergence" => FailureKind::NonConvergence,
        "deadline" => FailureKind::Deadline,
        "other" => FailureKind::Other,
        _ => return None,
    })
}

/// Serialises a final [`FaultRecord`] into journal fields:
/// `[fault_id, outcome, iddq, masks_skew, retried, failure_kind, failure_detail]`
/// with `-` standing for absent optionals and all floats as exact bit
/// patterns.
pub fn encode_fault_record(record: &FaultRecord) -> Vec<String> {
    vec![
        record.fault.id(),
        outcome_field(record.outcome).to_string(),
        record.iddq.map_or("-".to_string(), f64_bits),
        match record.masks_skew {
            None => "-".to_string(),
            Some(false) => "0".to_string(),
            Some(true) => "1".to_string(),
        },
        if record.retried { "1" } else { "0" }.to_string(),
        record
            .failure
            .as_ref()
            .map_or("-", |f| failure_kind_field(f.kind))
            .to_string(),
        record
            .failure
            .as_ref()
            .map_or(String::new(), |f| f.detail.clone()),
    ]
}

/// Reconstructs a [`FaultRecord`] from journal fields, cross-checking the
/// stored fault id against `fault` (a hash collision or aliased journal
/// entry decodes to `None` and counts as a memo miss, never as a wrong
/// verdict).
pub fn decode_fault_record(fields: &[String], fault: &Fault) -> Option<FaultRecord> {
    if fields.len() != 7 || fields[0] != fault.id() {
        return None;
    }
    let outcome = parse_outcome(&fields[1])?;
    let iddq = match fields[2].as_str() {
        "-" => None,
        bits => Some(parse_f64_bits(bits)?),
    };
    let masks_skew = match fields[3].as_str() {
        "-" => None,
        "0" => Some(false),
        "1" => Some(true),
        _ => return None,
    };
    let retried = match fields[4].as_str() {
        "0" => false,
        "1" => true,
        _ => return None,
    };
    let failure = match fields[5].as_str() {
        "-" => None,
        kind => Some(FailureInfo {
            kind: parse_failure_kind(kind)?,
            detail: fields[6].clone(),
        }),
    };
    // A failure reason travels exactly on inconclusive records; anything
    // else is a corrupt entry.
    if (failure.is_some()) != (outcome == DetectionOutcome::Inconclusive) {
        return None;
    }
    Some(FaultRecord {
        fault: fault.clone(),
        outcome,
        iddq,
        masks_skew,
        failure,
        retried,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::StuckLevel;
    use clocksense_core::ClockPair;

    fn tmp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("clocksense_journal_{}_{name}", std::process::id()))
    }

    fn sample_record(retried: bool) -> FaultRecord {
        FaultRecord {
            fault: Fault::NodeStuckAt {
                node: "y1".into(),
                level: StuckLevel::Zero,
            },
            outcome: DetectionOutcome::Inconclusive,
            iddq: Some(42.5e-6),
            masks_skew: Some(true),
            failure: Some(FailureInfo {
                kind: FailureKind::NonConvergence,
                detail: "worst node \"n1\"\n\tdelta=1e-3".into(),
            }),
            retried,
        }
    }

    #[test]
    fn journal_round_trips_records() {
        let path = tmp_path("round_trip");
        let _ = fs::remove_file(&path);
        let mut j = Journal::open(&path).unwrap();
        assert!(j.is_empty());
        j.append(0xabc, TAG_FAULT, &["a".into(), "b\tc".into()])
            .unwrap();
        j.append(0xdef, TAG_MC, &["x\ny".into()]).unwrap();
        let j2 = Journal::open(&path).unwrap();
        assert_eq!(j2.len(), 2);
        assert_eq!(
            j2.lookup(0xabc, TAG_FAULT).unwrap(),
            &["a".to_string(), "b\tc".to_string()]
        );
        assert_eq!(j2.lookup(0xdef, TAG_MC).unwrap(), &["x\ny".to_string()]);
        // Tag mismatch and unknown hash both miss.
        assert!(j2.lookup(0xabc, TAG_MC).is_none());
        assert!(j2.lookup(0x123, TAG_FAULT).is_none());
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn truncated_tail_is_tolerated() {
        let path = tmp_path("truncated");
        let _ = fs::remove_file(&path);
        let mut j = Journal::open(&path).unwrap();
        j.append(1, TAG_FAULT, &["one".into()]).unwrap();
        j.append(2, TAG_FAULT, &["two".into()]).unwrap();
        // Emulate a crashed writer tearing the last line.
        let text = fs::read_to_string(&path).unwrap();
        let torn = &text[..text.len() - 5];
        fs::write(&path, torn).unwrap();
        let j2 = Journal::open(&path).unwrap();
        assert_eq!(j2.len(), 1);
        assert!(j2.lookup(1, TAG_FAULT).is_some());
        assert!(j2.lookup(2, TAG_FAULT).is_none());
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn mid_record_corruption_is_skipped_not_fatal() {
        let path = tmp_path("mid_corrupt");
        let _ = fs::remove_file(&path);
        let mut j = Journal::open(&path).unwrap();
        j.append(1, TAG_FAULT, &["one".into()]).unwrap();
        j.append(2, TAG_FAULT, &["two".into()]).unwrap();
        j.append(3, TAG_FAULT, &["three".into()]).unwrap();
        // Flip a bit inside the *middle* record's hash field: the line
        // count is unchanged, but record 2 no longer parses as itself.
        let text = fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.split('\n').collect();
        let mangled = lines[2].replacen('0', "z", 1);
        let corrupted = [lines[0], lines[1], &mangled, lines[3], ""].join("\n");
        fs::write(&path, corrupted).unwrap();
        let j2 = Journal::open(&path).unwrap();
        // Records before AND after the corrupt line both survive.
        assert_eq!(j2.len(), 2);
        assert!(j2.lookup(1, TAG_FAULT).is_some());
        assert!(j2.lookup(2, TAG_FAULT).is_none());
        assert!(j2.lookup(3, TAG_FAULT).is_some());
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn hash_field_must_be_exactly_sixteen_hex_digits() {
        assert!(parse_entry("0123456789abcdef\tfault\tx").is_some());
        assert!(parse_entry("123\tfault\tx").is_none());
        assert!(parse_entry("0123456789abcdeff\tfault\tx").is_none());
        assert!(parse_entry("0123456789abcdeg\tfault\tx").is_none());
        assert!(parse_entry("0123456789abcdef\t\tx").is_none());
        assert!(parse_entry("").is_none());
    }

    #[test]
    fn foreign_header_loads_empty() {
        let path = tmp_path("foreign");
        fs::write(&path, "some-other-format/v9\n1\tfault\tx\n").unwrap();
        let j = Journal::open(&path).unwrap();
        assert!(j.is_empty());
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn latest_entry_wins() {
        let path = tmp_path("latest");
        let _ = fs::remove_file(&path);
        let mut j = Journal::open(&path).unwrap();
        j.append(7, TAG_FAULT, &["old".into()]).unwrap();
        j.append(7, TAG_FAULT, &["new".into()]).unwrap();
        assert_eq!(j.lookup(7, TAG_FAULT).unwrap(), &["new".to_string()]);
        let j2 = Journal::open(&path).unwrap();
        assert_eq!(j2.lookup(7, TAG_FAULT).unwrap(), &["new".to_string()]);
        let _ = fs::remove_file(&path);
    }

    /// Drives `items` `u64` items in chunks of `chunk` on one worker (so
    /// the journal is in item order); item `i`'s value is `value(i)`,
    /// and every range the driver hands the evaluator is recorded.
    fn drive_u64(
        items: usize,
        chunk: usize,
        memo: Option<&Memo<'_, u64, String>>,
        value: impl Fn(usize) -> u64 + Sync,
    ) -> (Result<Vec<u64>, String>, Vec<Range<usize>>) {
        let calls = Mutex::new(Vec::new());
        let out = run_items(
            items,
            chunk,
            memo,
            &Executor::new(1),
            &Counter::noop(),
            || {
                Ok(|range: Range<usize>| {
                    calls.lock().unwrap().push(range.clone());
                    range.map(|i| Ok(value(i))).collect()
                })
            },
            |i, message| Err(format!("item {i}: {message}")),
        );
        let mut calls = calls.into_inner().unwrap();
        calls.sort_by_key(|r| (r.start, r.end));
        (out, calls)
    }

    #[test]
    fn driver_returns_results_in_item_order_with_a_ragged_tail() {
        let (out, calls) = drive_u64(10, 4, None, |i| i as u64 + 100);
        assert_eq!(out.unwrap(), (100..110).collect::<Vec<_>>());
        assert_eq!(calls, vec![0..4, 4..8, 8..10]);
        // Width 0 or 1 runs every item on its own.
        for width in [0, 1] {
            let (out, calls) = drive_u64(3, width, None, |i| i as u64);
            assert_eq!(out.unwrap(), vec![0, 1, 2]);
            assert_eq!(calls, vec![0..1, 1..2, 2..3]);
        }
    }

    #[test]
    fn a_panic_in_one_member_of_a_chunk_costs_only_that_member() {
        let (out, calls) = drive_u64(3, 3, None, |i| {
            if i == 1 {
                panic!("member 1 blew up");
            }
            i as u64
        });
        let err = out.unwrap_err();
        assert!(err.starts_with("item 1: member 1 blew up"), "{err}");
        // The chunk ran once, then each member alone.
        assert_eq!(calls, vec![0..1, 0..3, 1..2, 2..3]);

        // With a mapping that keeps going, the batch-mates keep their
        // values and only the panicking member is mapped.
        let out = run_items(
            3,
            3,
            None,
            &Executor::new(1),
            &Counter::noop(),
            || {
                Ok(|range: Range<usize>| {
                    range
                        .map(|i| {
                            if i == 1 {
                                panic!("member 1 blew up");
                            }
                            Ok::<u64, String>(i as u64)
                        })
                        .collect()
                })
            },
            |_, _| Ok(u64::MAX),
        );
        assert_eq!(out.unwrap(), vec![0, u64::MAX, 2]);
    }

    fn u64_memo<'a>(
        path: &Path,
        hashes: Vec<u64>,
        decode: &'a (dyn Fn(usize, &[String]) -> Option<u64> + Sync),
        encode: &'a (dyn Fn(&u64) -> Option<Vec<String>> + Sync),
    ) -> Memo<'a, u64, String> {
        Memo::open(path, TAG_MC, hashes, decode, encode, |e| e).unwrap()
    }

    #[test]
    fn driver_replays_whole_chunks_and_journals_only_final_results() {
        let path = tmp_path("driver_replay");
        let _ = fs::remove_file(&path);
        let decode = |_: usize, fields: &[String]| fields[0].parse().ok();
        // Odd values are "not final yet" and never reach the journal.
        let encode = |v: &u64| v.is_multiple_of(2).then(|| vec![v.to_string()]);
        let hashes: Vec<u64> = (0..6).map(|i| 0x100 + i).collect();
        let value = |i: usize| 10 * i as u64;

        let memo = u64_memo(&path, hashes.clone(), &decode, &encode);
        let (out, calls) = drive_u64(6, 3, Some(&memo), value);
        assert_eq!(out.unwrap(), vec![0, 10, 20, 30, 40, 50]);
        assert_eq!(calls.len(), 2);
        assert_eq!(Journal::open(&path).unwrap().len(), 6);

        // Kill after four records: chunk 0 is whole, chunk 1 is not and
        // re-runs in full (its journalled member demotes to a miss).
        let text = fs::read_to_string(&path).unwrap();
        let keep: Vec<&str> = text.lines().take(5).collect();
        fs::write(&path, format!("{}\n", keep.join("\n"))).unwrap();
        let memo = u64_memo(&path, hashes.clone(), &decode, &encode);
        let (out, calls) = drive_u64(6, 3, Some(&memo), value);
        assert_eq!(out.unwrap(), vec![0, 10, 20, 30, 40, 50]);
        assert_eq!(calls, vec![3..6]);
        assert_eq!(Journal::open(&path).unwrap().len(), 4 + 3);

        // Fully journalled: the evaluator is never even built.
        let memo = u64_memo(&path, hashes.clone(), &decode, &encode);
        let built = std::cell::Cell::new(false);
        let out = run_items(
            6,
            3,
            Some(&memo),
            &Executor::new(1),
            &Counter::noop(),
            || {
                built.set(true);
                Ok(|range: Range<usize>| range.map(|i| Ok(i as u64)).collect())
            },
            |_, m| Err(m),
        );
        assert_eq!(out.unwrap(), vec![0, 10, 20, 30, 40, 50]);
        assert!(!built.get(), "set-up must not run");

        // A result the encoder declines is not journalled: it re-runs.
        let fresh: Vec<u64> = (0..4).map(|i| 0x200 + i).collect();
        let memo = u64_memo(&path, fresh.clone(), &decode, &encode);
        let (_, calls) = drive_u64(4, 1, Some(&memo), |i| i as u64);
        assert_eq!(calls.len(), 4);
        assert_eq!(Journal::open(&path).unwrap().len(), 7 + 2);
        let memo = u64_memo(&path, fresh, &decode, &encode);
        let (out, calls) = drive_u64(4, 1, Some(&memo), |i| i as u64);
        assert_eq!(out.unwrap(), vec![0, 1, 2, 3]);
        assert_eq!(calls, vec![1..2, 3..4]);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn a_selected_view_journals_without_replaying() {
        let path = tmp_path("driver_select");
        let _ = fs::remove_file(&path);
        let decode = |_: usize, fields: &[String]| fields[0].parse().ok();
        let encode = |v: &u64| Some(vec![v.to_string()]);
        let memo = u64_memo(&path, vec![0x10, 0x11, 0x12], &decode, &encode);
        drive_u64(3, 1, Some(&memo), |i| i as u64).0.unwrap();

        // A later pass over items 2 and 0 runs both although both are
        // journalled, and its records supersede theirs.
        let view = memo.select(&[2, 0]);
        let (out, calls) = drive_u64(2, 1, Some(&view), |k| 100 + k as u64);
        assert_eq!(out.unwrap(), vec![100, 101]);
        assert_eq!(calls, vec![0..1, 1..2]);
        let journal = Journal::open(&path).unwrap();
        assert_eq!(journal.len(), 5);
        assert_eq!(journal.lookup(0x12, TAG_MC).unwrap(), &["100".to_string()]);
        assert_eq!(journal.lookup(0x10, TAG_MC).unwrap(), &["101".to_string()]);
        assert_eq!(journal.lookup(0x11, TAG_MC).unwrap(), &["1".to_string()]);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn fault_record_codec_round_trips() {
        for retried in [false, true] {
            let record = sample_record(retried);
            let fields = encode_fault_record(&record);
            let back = decode_fault_record(&fields, &record.fault).unwrap();
            assert_eq!(back, record);
        }
        // Plain verdicts too.
        let record = FaultRecord {
            fault: Fault::StuckOn {
                device: "m_b".into(),
            },
            outcome: DetectionOutcome::DetectedIddq,
            iddq: Some(1.25e-4),
            masks_skew: None,
            failure: None,
            retried: false,
        };
        let fields = encode_fault_record(&record);
        assert_eq!(decode_fault_record(&fields, &record.fault).unwrap(), record);
        // Wrong fault id is a miss, not a misread.
        let other = Fault::StuckOn {
            device: "m_c".into(),
        };
        assert!(decode_fault_record(&fields, &other).is_none());
    }

    #[test]
    fn fingerprint_tracks_every_knob() {
        let base = CampaignConfig::new(ClockPair::single_shot(5.0, 0.2e-9));
        let fp = campaign_fingerprint(&base, 2.5);
        let mut sim = base.clone();
        sim.sim.reltol *= 2.0;
        assert_ne!(campaign_fingerprint(&sim, 2.5), fp);
        let mut retry = base.clone();
        retry.retry = false;
        assert_ne!(campaign_fingerprint(&retry, 2.5), fp);
        let mut clocks = base.clone();
        clocks.clocks.skew += 1e-12;
        assert_ne!(campaign_fingerprint(&clocks, 2.5), fp);
        assert_ne!(campaign_fingerprint(&base, 2.500001), fp);
        // Thread count is not part of the identity.
        let mut threads = base.clone();
        threads.threads = 7;
        assert_eq!(campaign_fingerprint(&threads, 2.5), fp);
    }
}
