//! Sharded, content-addressed on-disk artifact store.
//!
//! This is the common core behind every persistent cache in the
//! workspace: configuration curves ([`curvecache`](crate::curvecache)) and
//! reconfiguration base problems ([`problemcache`](crate::problemcache)),
//! both through the one in-process memo behind
//! [`cached_curve_with`](crate::cached_curve_with) and
//! [`cached_jpeg_problem_with`](crate::cached_jpeg_problem_with), and
//! `rtise-serve`'s memoized responses all call [`store`] (or
//! [`store_rendered`], with a render in hand) and [`load`] directly with
//! the family's key. An artifact family plugs in by
//! implementing [`Artifact`]: a family name, a JSON payload encoding, and
//! a decoder that *independently re-certifies* what it reconstructs (the
//! store never trusts bytes it read back).
//!
//! Layout: entries live in `N_SHARDS` shard directories
//! (`shard-00/ … shard-07/`) under the store root, assigned by the FNV-1a
//! hash of the entry's full key. Each shard is **single-writer** — a
//! process-wide per-shard mutex serializes stores, and every write goes
//! through a per-process temp file plus an atomic rename — while readers
//! stay lock-free: a rename either installs a complete entry or leaves
//! the old one, so a concurrent reader never observes a torn document.
//!
//! Envelope: every entry is one compact JSON document
//! `{format, family, key, payload, counters, hists, checksum}` — the
//! counters and histograms recorded while the artifact was generated
//! ride along so a later hit can [`attribute`](rtise_obs::registry::attribute)
//! identical work to its consumers, and the checksum (FNV-1a over all
//! content fields) guards truncation and bit rot. The checksum covers the
//! canonical compact renders of the fields, not the file's bytes, so an
//! entry loads in any layout: the compact text this build writes, the
//! indented text earlier builds wrote, or a copy re-indented by another
//! tool. A load parses the entry once. The parser tells whether the text
//! is byte for byte the compact render of what it parsed
//! ([`parse_compact`]), as every entry this build writes is: then the
//! payload's render is the slice of the text the payload takes, and the
//! load renders nothing. An entry in any other layout (indented,
//! re-spaced, numbers written as floats, other escapes) has its payload
//! rendered once. Either way the checksum covers that render, the
//! family's decoder receives it and owns the payload, and [`load_with`]
//! hands the render on to a caller that serves it. Raw bytes that merely
//! match the checksum prove nothing: a forged entry carries a checksum
//! of its own bytes, so only the parser's proof lets a load serve them.
//!
//! Trust model: [`load`] re-checks the format version, family, and full
//! key string, the content checksum, and finally the family's own
//! semantic re-certification, reporting failures as stable
//! `STORE001`–`STORE005` diagnostics. Anything suspicious degrades to a
//! recompute with a warning on stderr and an eviction — a corrupted
//! store can slow a consumer down but can never feed it an uncertified
//! artifact. Hit/miss/store/evict traffic and entry ages feed the
//! `cache.<family>.*` counters and histograms.

use rtise::check::diag::{Code, Diagnostics, Location};
use rtise_obs::json::{parse_compact, Value};
use rtise_obs::Hist;
use rtise_obs::{fnv1a, Fnv1a};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Bumped whenever the envelope layout changes shape; part of every key,
/// so stale-format entries simply miss. Version 3 introduced the sharded
/// envelope layout shared by all artifact families.
pub const FORMAT_VERSION: u32 = 3;

/// Number of single-writer shards.
pub const N_SHARDS: u64 = 8;

/// Process-wide single-writer locks, one per shard.
static SHARD_LOCKS: [Mutex<()>; N_SHARDS as usize] = [
    Mutex::new(()),
    Mutex::new(()),
    Mutex::new(()),
    Mutex::new(()),
    Mutex::new(()),
    Mutex::new(()),
    Mutex::new(()),
    Mutex::new(()),
];

/// One persistable artifact family.
pub trait Artifact: Sized {
    /// Family name; part of every key and of the `cache.<family>.*`
    /// counter names.
    const FAMILY: &'static str;

    /// Encodes the payload portion of the envelope. Must be
    /// deterministic: the checksum covers the rendered bytes.
    fn encode(&self) -> Value;

    /// Decodes a payload and independently re-certifies it; the returned
    /// error string names what failed (reported as `STORE004`). The
    /// payload is the decoder's to keep; `rendered` is its compact
    /// [`render`](Value::render), the bytes the entry checksum covered,
    /// for a decoder that re-hashes part of them: a slice of the entry's
    /// own text when that text is compact, else rendered for the load.
    ///
    /// # Errors
    ///
    /// Any structural or semantic problem with the payload.
    fn decode(payload: Value, rendered: &str) -> Result<Self, String>;

    /// Whether a decoded artifact may be served under `tag`, its entry's
    /// filename prefix. The key covers the tag, so `false` means a forged
    /// payload: a checksum-consistent envelope around another subject's
    /// artifact, which [`load`] evicts. Families whose payload does not
    /// name its subject keep the default.
    fn belongs_to(&self, _tag: &str) -> bool {
        true
    }
}

/// The full key of an entry: format version, family, and the caller's
/// logical key (which must cover every generation input).
#[must_use]
pub fn full_key<A: Artifact>(key: &str) -> String {
    format!("v{FORMAT_VERSION}|{}|{key}", A::FAMILY)
}

/// Shard index of a key.
#[must_use]
pub fn shard_of<A: Artifact>(key: &str) -> u64 {
    fnv1a(full_key::<A>(key).as_bytes()) % N_SHARDS
}

/// Path of the entry for `key` under `dir`. `tag` is a human-readable
/// filename prefix (e.g. the kernel name); the content address is the
/// hash suffix.
#[must_use]
pub fn entry_path<A: Artifact>(dir: &Path, tag: &str, key: &str) -> PathBuf {
    let hash = fnv1a(full_key::<A>(key).as_bytes());
    dir.join(format!("shard-{:02}", hash % N_SHARDS))
        .join(format!("{tag}-{hash:016x}.json"))
}

/// FNV-1a over `family|FORMAT_VERSION|key|payload|counters|hists`, each
/// of the last three a compact render (`payload` comes rendered), hashed
/// piece by piece.
fn checksum(family: &str, key: &str, payload: &str, counters: &Value, hists: &Value) -> u64 {
    let mut rest = String::new();
    counters.render_into(&mut rest);
    rest.push('|');
    hists.render_into(&mut rest);
    let version = FORMAT_VERSION.to_string();
    let mut hasher = Fnv1a::new();
    for piece in [family, &version, key, payload] {
        hasher.write(piece.as_bytes());
        hasher.write(b"|");
    }
    hasher.write(rest.as_bytes());
    hasher.finish()
}

/// Histograms as a JSON object of full bucket encodings
/// ([`Hist::to_json`]) — replay must be exact, so summaries are not
/// enough.
#[must_use]
pub fn hists_json(hists: &BTreeMap<String, Hist>) -> Value {
    Value::Obj(
        hists
            .iter()
            .map(|(k, h)| (k.clone(), h.to_json()))
            .collect(),
    )
}

/// Decodes a [`hists_json`] object; `None` on any malformed histogram.
#[must_use]
pub fn hists_from_json(v: &Value) -> Option<BTreeMap<String, Hist>> {
    let Value::Obj(pairs) = v else { return None };
    let mut hists = BTreeMap::new();
    for (k, h) in pairs {
        hists.insert(k.clone(), Hist::from_json(h)?);
    }
    Some(hists)
}

/// Builds the complete envelope document for an entry, checksum
/// included. Public so negative tests can forge checksum-consistent
/// entries and assert the store still rejects them semantically.
#[must_use]
pub fn encode_envelope<A: Artifact>(
    key: &str,
    payload: Value,
    counters: &BTreeMap<String, u64>,
    hists: &BTreeMap<String, Hist>,
) -> Value {
    let rendered = payload.render();
    envelope::<A>(key, &rendered, payload, counters, hists)
}

/// The envelope for the payload whose compact render is `rendered`, with
/// `payload` in its place: the checksum covers `rendered` whatever
/// `payload` holds.
fn envelope<A: Artifact>(
    key: &str,
    rendered: &str,
    payload: Value,
    counters: &BTreeMap<String, u64>,
    hists: &BTreeMap<String, Hist>,
) -> Value {
    let full = full_key::<A>(key);
    let counters_json = Value::from(counters);
    let hists_value = hists_json(hists);
    let sum = checksum(A::FAMILY, &full, rendered, &counters_json, &hists_value);
    Value::obj(vec![
        ("format", u64::from(FORMAT_VERSION).into()),
        ("family", A::FAMILY.into()),
        ("key", full.into()),
        ("payload", payload),
        ("counters", counters_json),
        ("hists", hists_value),
        ("checksum", format!("{sum:016x}").into()),
    ])
}

/// Writes the entry for `(tag, key)` under `dir`, creating the shard
/// directory if needed. The shard's single-writer lock is held for the
/// duration of the write; the write itself goes through a per-process
/// temp file and an atomic rename, so concurrent *processes* never
/// observe a torn entry either.
///
/// # Errors
///
/// Propagates filesystem errors; the store is an optimization, so
/// callers downgrade them to warnings.
///
/// # Panics
///
/// Panics if the shard lock is poisoned (a writer panicked mid-store).
pub fn store<A: Artifact>(
    dir: &Path,
    tag: &str,
    key: &str,
    artifact: &A,
    counters: &BTreeMap<String, u64>,
    hists: &BTreeMap<String, Hist>,
) -> std::io::Result<()> {
    store_rendered::<A>(dir, tag, key, &artifact.encode().render(), counters, hists)
}

/// [`store`] for an artifact whose encoding the caller has already
/// rendered: `payload` is the compact [`render`](Value::render) of
/// [`Artifact::encode`]. The entry is that render inside the envelope's,
/// the bytes [`store`] writes, with no second render of the payload.
///
/// # Errors
///
/// Propagates filesystem errors, as [`store`] does.
///
/// # Panics
///
/// Panics if the shard lock is poisoned (a writer panicked mid-store).
pub fn store_rendered<A: Artifact>(
    dir: &Path,
    tag: &str,
    key: &str,
    payload: &str,
    counters: &BTreeMap<String, u64>,
    hists: &BTreeMap<String, Hist>,
) -> std::io::Result<()> {
    let doc = envelope::<A>(key, payload, Value::Null, counters, hists);
    let mut text = doc.render();
    let null = doc
        .member_range("payload")
        .expect("an envelope has a payload");
    text.replace_range(null, payload);
    let path = entry_path::<A>(dir, tag, key);
    let shard = shard_of::<A>(key);
    rtise_obs::record(&format!("cache.{}.store", A::FAMILY), 1);
    let _writer = SHARD_LOCKS[shard as usize]
        .lock()
        .expect("shard writer lock poisoned");
    std::fs::create_dir_all(path.parent().expect("entry path has a shard dir"))?;
    write_atomic(&path, &text)
}

/// Writes `text` to `path` through a `*.tmp.<pid>` sibling and an atomic
/// rename. A failed write or rename removes the temp file before the
/// error is returned.
fn write_atomic(path: &Path, text: &str) -> std::io::Result<()> {
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    let written = std::fs::write(&tmp, text).and_then(|()| std::fs::rename(&tmp, path));
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    written
}

/// The unsigned integer member `key` of a payload object, for family
/// decoders; the error names the member.
pub(crate) fn u64_field(doc: &Value, key: &str) -> Result<u64, String> {
    doc.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("malformed {key}"))
}

fn malformed(d: &mut Diagnostics, what: &str) {
    d.error(
        Code::STORE001,
        Location::Global,
        format!("entry envelope is malformed: {what}"),
    );
}

/// Validates one entry document against the expected key and decodes the
/// artifact. Returns the decoded entry (when clean) plus the diagnostics
/// — every reject maps to a stable `STORE…` code, which the seeded
/// mutation tests assert on. Any layout of the document validates: the
/// checksum covers compact renders of its members, not the file's bytes.
pub fn validate<A: Artifact>(text: &str, key: &str) -> (Option<Entry<A>>, Diagnostics) {
    validate_with(text, key, |artifact: A, _| artifact)
}

/// [`validate`], handing the decoded artifact and its payload's compact
/// render — the bytes the checksum covered — to `map`, whose value takes
/// the artifact's place in the entry. When `text` is itself a compact
/// render ([`parse_compact`]), that render is a slice of it; any other
/// layout has its payload rendered.
fn validate_with<'a, A: Artifact, T>(
    text: &'a str,
    key: &str,
    map: impl FnOnce(A, Cow<'a, str>) -> T,
) -> (Option<Entry<T>>, Diagnostics) {
    let mut d = Diagnostics::new();
    let (mut doc, compact) = match parse_compact(text) {
        Ok(parsed) => parsed,
        Err(e) => {
            d.error(
                Code::STORE001,
                Location::Global,
                format!("entry is not valid JSON: {e}"),
            );
            return (None, d);
        }
    };
    match doc.get("format").and_then(Value::as_u64) {
        None => {
            malformed(&mut d, "format");
            return (None, d);
        }
        Some(v) if v != u64::from(FORMAT_VERSION) => {
            d.error(
                Code::STORE005,
                Location::Global,
                format!("entry format v{v}, this build writes v{FORMAT_VERSION}"),
            );
            return (None, d);
        }
        Some(_) => {}
    }
    let full = full_key::<A>(key);
    if doc.get("family").and_then(Value::as_str) != Some(A::FAMILY) {
        d.error(
            Code::STORE002,
            Location::Global,
            format!("entry family is not {:?}", A::FAMILY),
        );
        return (None, d);
    }
    if doc.get("key").and_then(Value::as_str) != Some(full.as_str()) {
        d.error(
            Code::STORE002,
            Location::Global,
            "entry key does not match the requested artifact",
        );
        return (None, d);
    }
    let Some(payload) = take_member(&mut doc, "payload") else {
        malformed(&mut d, "payload");
        return (None, d);
    };
    let Some(counters_json) = doc.get("counters") else {
        malformed(&mut d, "counters");
        return (None, d);
    };
    let Some(hists_value) = doc.get("hists") else {
        malformed(&mut d, "hists");
        return (None, d);
    };
    let claimed = doc
        .get("checksum")
        .and_then(Value::as_str)
        .and_then(|s| u64::from_str_radix(s, 16).ok());
    let Some(claimed) = claimed else {
        malformed(&mut d, "checksum");
        return (None, d);
    };
    // A compact text is its document's render, so the payload's render
    // is the range the payload member takes in it. Measured from both
    // ends, it renders only the small members around the payload.
    let within = if compact {
        doc.member_range_around("payload", text.len())
            .and_then(|range| text.get(range))
    } else {
        None
    };
    let rendered = within.map_or_else(|| Cow::Owned(payload.render()), Cow::Borrowed);
    if claimed != checksum(A::FAMILY, &full, &rendered, counters_json, hists_value) {
        d.error(
            Code::STORE003,
            Location::Global,
            "content checksum disagrees with the entry body",
        );
        return (None, d);
    }

    let artifact = match A::decode(payload, &rendered) {
        Ok(a) => a,
        Err(e) => {
            d.error(
                Code::STORE004,
                Location::Global,
                format!("payload failed re-certification: {e}"),
            );
            return (None, d);
        }
    };
    let mut counters = BTreeMap::new();
    let Value::Obj(pairs) = counters_json else {
        malformed(&mut d, "counters");
        return (None, d);
    };
    for (k, v) in pairs {
        let Some(n) = v.as_u64() else {
            malformed(&mut d, "counters");
            return (None, d);
        };
        counters.insert(k.clone(), n);
    }
    let Some(hists) = hists_from_json(hists_value) else {
        malformed(&mut d, "hists");
        return (None, d);
    };
    (Some((map(artifact, rendered), counters, hists)), d)
}

/// Moves the first `key` member — the one [`Value::get`] finds — out of
/// an object, leaving `null` in its place.
fn take_member(doc: &mut Value, key: &str) -> Option<Value> {
    let Value::Obj(pairs) = doc else { return None };
    let (_, value) = pairs.iter_mut().find(|(k, _)| k == key)?;
    Some(std::mem::replace(value, Value::Null))
}

/// A decoded artifact plus the counters and histograms its generation
/// recorded.
pub type Entry<A> = (A, BTreeMap<String, u64>, BTreeMap<String, Hist>);

/// Age of the on-disk entry in milliseconds, when the filesystem can
/// tell us.
fn entry_age_ms(path: &Path) -> Option<u64> {
    age_ms(&std::fs::metadata(path).ok()?)
}

fn age_ms(meta: &std::fs::Metadata) -> Option<u64> {
    let age = meta.modified().ok()?.elapsed().ok()?;
    Some(u64::try_from(age.as_millis()).unwrap_or(u64::MAX))
}

/// Whether an entry file for `(tag, key)` exists under `dir`. A pure
/// presence probe — the entry may still be rejected on [`load`].
#[must_use]
pub fn contains<A: Artifact>(dir: &Path, tag: &str, key: &str) -> bool {
    entry_path::<A>(dir, tag, key).exists()
}

/// Loads the entry for `(tag, key)` from `dir`. Returns `None` on a
/// plain miss (no entry) and also on any rejected entry — truncated or
/// bit-flipped files, key/family/version mismatches, payloads that fail
/// the family's re-certification (all with their `STORE…` code), and
/// artifacts that do not [belong](Artifact::belongs_to) to `tag` warn on
/// stderr and fall back to recomputation instead of panicking.
/// Hits, misses, and evictions feed the global `cache.<family>.*`
/// telemetry. Readers take no lock: the atomic-rename write protocol
/// guarantees they see complete documents.
pub fn load<A: Artifact>(dir: &Path, tag: &str, key: &str) -> Option<Entry<A>> {
    load_with(dir, tag, key, |artifact: A, _| artifact)
}

/// [`load`], with the hit mapped by `map` from the decoded artifact and
/// its payload's compact render, the bytes the entry checksum covered,
/// borrowed from the entry's text when that text is compact; a caller
/// that serves those bytes takes them here instead of rendering the
/// artifact again.
pub fn load_with<A: Artifact, T>(
    dir: &Path,
    tag: &str,
    key: &str,
    map: impl FnOnce(A, Cow<'_, str>) -> T,
) -> Option<Entry<T>> {
    let path = entry_path::<A>(dir, tag, key);
    let prefix = format!("cache.{}", A::FAMILY);
    // One open and one `fstat`: the age and the buffer size come from the
    // same metadata. Reading through `Take` skips the size probe (an
    // `fstat` and an `lseek`) of `File::read_to_string`; it still reads to
    // the end of the file.
    let read = std::fs::File::open(&path).and_then(|file| {
        let meta = file.metadata().ok();
        let len = meta.as_ref().map_or(0, std::fs::Metadata::len);
        let mut text = String::new();
        text.try_reserve(usize::try_from(len).unwrap_or(usize::MAX))?;
        file.take(u64::MAX).read_to_string(&mut text)?;
        Ok((text, meta.as_ref().and_then(age_ms)))
    });
    let (text, age) = match read {
        Ok(read) => read,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            rtise_obs::record(&format!("{prefix}.miss"), 1);
            return None;
        }
        Err(e) => {
            eprintln!(
                "warning: {} store entry {} is unreadable ({e}); recomputing",
                A::FAMILY,
                path.display()
            );
            evict(&path, &prefix, entry_age_ms(&path));
            return None;
        }
    };
    let (entry, diags) =
        validate_with::<A, _>(&text, key, |artifact, rendered| (artifact, rendered));
    match entry {
        Some(((artifact, rendered), counters, hists)) if artifact.belongs_to(tag) => {
            rtise_obs::record(&format!("{prefix}.hit"), 1);
            if let Some(age) = age {
                rtise_obs::observe(&format!("{prefix}.entry_age_ms"), age);
            }
            Some((map(artifact, rendered), counters, hists))
        }
        Some(_) => {
            eprintln!(
                "warning: {} store entry {} holds an artifact of another subject than {tag:?}; \
                 recomputing",
                A::FAMILY,
                path.display()
            );
            evict(&path, &prefix, age);
            None
        }
        None => {
            eprintln!(
                "warning: discarding {} store entry {} ({}); recomputing",
                A::FAMILY,
                path.display(),
                diags.render().trim_end()
            );
            // Remove the bad entry so the recomputed artifact replaces it.
            evict(&path, &prefix, age);
            None
        }
    }
}

/// Deletes a rejected entry and records it as an eviction, with the age
/// of the evicted entry when known. A failed deletion (other than the
/// entry already being gone, e.g. a concurrent evictor won the race) is
/// counted under `{prefix}.evict_failed` and warned about once per
/// process — a rejected entry that cannot be removed would otherwise be
/// re-validated and re-warned on every load, silently.
fn evict(path: &Path, prefix: &str, age_ms: Option<u64>) {
    match std::fs::remove_file(path) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => {
            rtise_obs::record(&format!("{prefix}.evict_failed"), 1);
            static WARNED: std::sync::Once = std::sync::Once::new();
            WARNED.call_once(|| {
                eprintln!(
                    "warning: failed to evict store entry {} ({e}); rejected entries will be \
                     re-validated on every load (further eviction failures counted under \
                     *.evict_failed without this warning)",
                    path.display()
                );
            });
        }
    }
    rtise_obs::record(&format!("{prefix}.evict"), 1);
    if let Some(age) = age_ms {
        rtise_obs::observe(&format!("{prefix}.evict_age_ms"), age);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtise_obs::Rng;

    /// A toy artifact whose decoder enforces one semantic invariant
    /// (values strictly increasing), so tests can build
    /// checksum-consistent entries that still fail re-certification.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Staircase(Vec<u64>);

    impl Artifact for Staircase {
        const FAMILY: &'static str = "stair";

        fn encode(&self) -> Value {
            Value::obj(vec![(
                "values",
                Value::Arr(self.0.iter().map(|&v| v.into()).collect()),
            )])
        }

        fn decode(payload: Value, _rendered: &str) -> Result<Self, String> {
            let arr = payload
                .get("values")
                .and_then(Value::as_arr)
                .ok_or("values missing")?;
            let mut values = Vec::new();
            for v in arr {
                values.push(v.as_u64().ok_or("non-integer value")?);
            }
            if values.windows(2).any(|w| w[0] >= w[1]) {
                return Err("values are not strictly increasing".into());
            }
            Ok(Staircase(values))
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rtise-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn counters() -> BTreeMap<String, u64> {
        BTreeMap::from([("toy.work".to_string(), 7u64)])
    }

    fn hists() -> BTreeMap<String, Hist> {
        let mut h = Hist::new();
        for v in [1, 2, 400] {
            h.observe(v);
        }
        BTreeMap::from([("toy.depth".to_string(), h)])
    }

    #[test]
    fn round_trips_artifact_counters_and_hists() {
        let dir = tmp_dir("roundtrip");
        let art = Staircase(vec![1, 5, 9]);
        store(&dir, "toy", "k1", &art, &counters(), &hists()).expect("store");
        let (loaded, attrib, attrib_hists) = load::<Staircase>(&dir, "toy", "k1").expect("hit");
        assert_eq!(loaded, art);
        assert_eq!(attrib, counters());
        assert_eq!(attrib_hists, hists());
        // A different key misses even with the same tag.
        assert!(load::<Staircase>(&dir, "toy", "k2").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The store writes the compact render of the envelope, and any
    /// layout of the same document — the pretty text older builds wrote,
    /// or a re-indented copy — validates to the same entry: the checksum
    /// covers compact renders of the members, not the file's bytes.
    #[test]
    fn every_layout_of_an_envelope_validates_to_the_same_entry() {
        let dir = tmp_dir("layouts");
        let art = Staircase(vec![2, 4]);
        store(&dir, "toy", "k", &art, &counters(), &hists()).expect("store");
        let envelope = encode_envelope::<Staircase>("k", art.encode(), &counters(), &hists());
        let written = std::fs::read_to_string(entry_path::<Staircase>(&dir, "toy", "k"));
        assert_eq!(written.expect("entry"), envelope.render(), "compact entry");

        let compact = envelope.render();
        let pretty = envelope.render_pretty();
        let spaced = compact.replace(',', " ,\n    ").replace(':', " : ");
        assert_ne!(spaced, compact);
        let want = (art, counters(), hists());
        for text in [&compact, &pretty, &spaced] {
            let (entry, d) = validate::<Staircase>(text, "k");
            assert!(d.is_clean(), "{text}: {}", d.render());
            assert_eq!(entry, Some(want.clone()), "{text}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The envelope checksum of a fixed entry, computed by the build that
    /// hashed one `format!`-joined string: streaming the pieces through
    /// one hasher must not move it, or every stored entry would miss.
    #[test]
    fn a_fixed_envelope_keeps_its_checksum() {
        let envelope = encode_envelope::<Staircase>(
            "k",
            Staircase(vec![2, 4]).encode(),
            &counters(),
            &hists(),
        );
        assert_eq!(
            envelope.get("checksum").and_then(Value::as_str),
            Some("27a14941abc91d74")
        );
    }

    /// Names in `dir` that look like a writer's temp file.
    fn temp_files(dir: &Path) -> Vec<String> {
        std::fs::read_dir(dir)
            .expect("read dir")
            .map(|e| {
                e.expect("dir entry")
                    .file_name()
                    .to_string_lossy()
                    .into_owned()
            })
            .filter(|name| name.contains("tmp."))
            .collect()
    }

    #[test]
    fn failed_store_leaves_no_temp_file() {
        let dir = tmp_dir("failed-store");
        let path = entry_path::<Staircase>(&dir, "toy", "k1");
        // A directory squatting on the entry's final path makes the
        // rename fail after the temp file was written.
        std::fs::create_dir_all(&path).expect("squat the entry path");
        let art = Staircase(vec![1, 2]);
        assert!(store(&dir, "toy", "k1", &art, &counters(), &hists()).is_err());
        let shard = path.parent().expect("shard dir");
        assert_eq!(temp_files(shard), Vec::<String>::new());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn entries_spread_over_shards_and_survive_concurrent_writers() {
        let dir = tmp_dir("shards");
        // Enough keys to populate several shard directories.
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let dir = &dir;
                s.spawn(move || {
                    for i in 0..16u64 {
                        let key = format!("k{t}-{i}");
                        let art = Staircase(vec![i, i + 1 + t]);
                        store(dir, "toy", &key, &art, &counters(), &hists()).expect("store");
                    }
                });
            }
        });
        let mut shards_used = 0;
        for s in 0..N_SHARDS {
            let shard = dir.join(format!("shard-{s:02}"));
            if shard.is_dir() && shard.read_dir().expect("read shard").next().is_some() {
                shards_used += 1;
            }
        }
        assert!(
            shards_used >= 4,
            "64 keys should land in several shards, got {shards_used}"
        );
        for t in 0..4u64 {
            for i in 0..16u64 {
                let key = format!("k{t}-{i}");
                let (got, _, _) = load::<Staircase>(&dir, "toy", &key).expect("hit");
                assert_eq!(got, Staircase(vec![i, i + 1 + t]));
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rejects_map_to_stable_store_codes() {
        let art = Staircase(vec![2, 4]);
        let envelope = encode_envelope::<Staircase>("k", art.encode(), &counters(), &hists());
        let text = envelope.render_pretty();

        // Clean entry validates clean.
        let (entry, d) = validate::<Staircase>(&text, "k");
        assert!(entry.is_some() && d.is_clean(), "{}", d.render());

        // Garbage → STORE001.
        let (e, d) = validate::<Staircase>("{not json", "k");
        assert!(e.is_none() && d.has(Code::STORE001));

        // Wrong key → STORE002.
        let (e, d) = validate::<Staircase>(&text, "other");
        assert!(e.is_none() && d.has(Code::STORE002));

        // Doctored-but-parseable body → STORE003.
        let doctored = text.replace("\"toy.work\": 7", "\"toy.work\": 8");
        assert_ne!(doctored, text, "doctoring must hit the counters");
        let (e, d) = validate::<Staircase>(&doctored, "k");
        assert!(e.is_none() && d.has(Code::STORE003));

        // Wrong format version (checksum-consistent otherwise) → STORE005.
        let stale = text.replace(
            &format!("\"format\": {FORMAT_VERSION}"),
            &format!("\"format\": {}", FORMAT_VERSION + 1),
        );
        let (e, d) = validate::<Staircase>(&stale, "k");
        assert!(e.is_none() && d.has(Code::STORE005));

        // Checksum-consistent but semantically invalid payload → STORE004:
        // forge a fresh envelope around a non-increasing staircase.
        let bad = encode_envelope::<Staircase>(
            "k",
            Value::obj(vec![("values", Value::Arr(vec![5u64.into(), 3u64.into()]))]),
            &counters(),
            &hists(),
        );
        let (e, d) = validate::<Staircase>(&bad.render_pretty(), "k");
        assert!(e.is_none() && d.has(Code::STORE004), "{}", d.render());
    }

    /// An eviction whose `remove_file` fails must say so — counted under
    /// `{prefix}.evict_failed` — instead of silently leaving the rejected
    /// entry behind. A directory at the entry path makes `remove_file`
    /// fail deterministically (even for root, unlike permission bits).
    #[test]
    fn failed_eviction_is_counted_not_silent() {
        let dir = tmp_dir("evict-failed");
        let stuck = dir.join("stuck-entry");
        std::fs::create_dir_all(&stuck).expect("create dir");
        let scope = rtise_obs::Scope::new();
        {
            let _guard = scope.enter();
            evict(&stuck, "cache.toy", Some(7));
        }
        let counters = scope.counters();
        assert_eq!(counters.get("cache.toy.evict"), Some(&1));
        assert_eq!(counters.get("cache.toy.evict_failed"), Some(&1));
        assert!(stuck.exists(), "the undeletable entry is still there");

        // A successful eviction — and one racing an already-gone entry —
        // must not count as failed.
        let gone = dir.join("plain-entry");
        std::fs::write(&gone, b"x").expect("write");
        let scope = rtise_obs::Scope::new();
        {
            let _guard = scope.enter();
            evict(&gone, "cache.toy", None);
            evict(&gone, "cache.toy", None);
        }
        let counters = scope.counters();
        assert_eq!(counters.get("cache.toy.evict"), Some(&2));
        assert_eq!(counters.get("cache.toy.evict_failed"), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Seeded truncations and bit flips of a valid entry must always fall
    /// back to a miss (recompute), never panic in the JSON parser, and
    /// must delete the bad entry.
    #[test]
    fn corrupted_entries_fall_back_to_recompute_and_evict() {
        let dir = tmp_dir("corrupt");
        let art = Staircase(vec![3, 8, 20]);
        let path = entry_path::<Staircase>(&dir, "toy", "kc");
        let mut rng = Rng::new(0x57ee_d5eed);
        for case in 0..48u32 {
            store(&dir, "toy", "kc", &art, &counters(), &hists()).expect("store");
            let pristine = std::fs::read(&path).expect("read");
            let mut bytes = pristine.clone();
            if case % 2 == 0 {
                let cut = 1 + rng.gen_range(0..bytes.len() as u64 - 1) as usize;
                bytes.truncate(cut);
            } else {
                let at = rng.gen_range(0..bytes.len() as u64) as usize;
                bytes[at] ^= 1u8 << rng.gen_range(0..8u32);
                if bytes == pristine {
                    continue;
                }
            }
            std::fs::write(&path, &bytes).expect("corrupt");
            assert!(
                load::<Staircase>(&dir, "toy", "kc").is_none(),
                "case {case}: corrupted entry must miss"
            );
            assert!(
                !path.exists(),
                "case {case}: rejected entry must be removed"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
