//! The versioned, checksummed binary format for [`SchemaArtifacts`](mcc::SchemaArtifacts).
//!
//! ## Layout (format version 1, all integers little-endian)
//!
//! ```text
//! header   magic  b"MCCSTORE"                    8 bytes
//!          version  u32                          4
//!          fingerprint  u64 (schema FNV-1a)      8
//!          section_count  u32                    4
//!          header_crc  u32 (CRC-32 of the 24
//!            bytes above)                        4
//! section  tag  u32                              4
//!   (×N)   len  u64 (payload bytes)              8
//!          payload                               len
//!          payload_crc  u32 (CRC-32 of payload)  4
//! ```
//!
//! Sections appear in ascending tag order. `GRAPH`, `CLASSIFICATION`,
//! and `ELIMINATION` are mandatory; the two Lemma 1 sections are present
//! exactly when the corresponding route is polynomial for the schema.
//! Both orderings are node ids of the one stored graph: the `V2` route
//! orders relation-side nodes, the `V1` route attribute-side nodes, and
//! Algorithm 1 runs either on the graph as stored.
//!
//! ## Integrity and versioning contract
//!
//! * Every section is independently CRC-checked **before** its payload
//!   is parsed; a flipped byte or truncated tail fails validation, never
//!   panics, and names the damaged section.
//! * The header echoes the schema fingerprint, so a file renamed over
//!   the wrong key is rejected (`FingerprintMismatch`) without parsing.
//! * Decoded parts pass through [`SchemaArtifacts::from_parts`](mcc::SchemaArtifacts::from_parts), so even
//!   a CRC-valid but internally inconsistent blob cannot build a bundle
//!   that panics a solver.
//! * `VERSION` bumps require a reader for every earlier version (the
//!   golden-file test in `tests/golden_v1.rs` decodes a checked-in v1
//!   blob and fails the build if a bump silently drops v1 support).
//!
//! Encoding is deterministic: equal bundles encode to identical bytes
//! (node order, `Graph::edges` order, and section order are all fixed),
//! which is what lets the chaos suite assert "byte-identical artifacts
//! or clean miss" after every injected fault.

use crate::crc::crc32;
use mcc::{ArtifactsError, SchemaArtifacts};
use mcc_chordality::BipartiteClassification;
use mcc_graph::{BipartiteGraph, GraphBuilder, NodeId, Side};
use mcc_hypergraph::{EdgeId, JoinTree};
use mcc_steiner::Lemma1Ordering;
use std::fmt;

/// The 8-byte file magic.
pub const MAGIC: [u8; 8] = *b"MCCSTORE";

/// The current format version. Bumping this without teaching
/// [`decode`] to still read every earlier version breaks the golden
/// fixture test — that is the migration contract.
pub const VERSION: u32 = 1;

/// Section tags, ascending in file order.
const TAG_GRAPH: u32 = 1;
const TAG_CLASSIFICATION: u32 = 2;
const TAG_ELIMINATION: u32 = 3;
const TAG_LEMMA1_V2: u32 = 4;
const TAG_LEMMA1_V1: u32 = 5;

/// Why a blob failed to validate or decode. Every variant is a *clean
/// rejection*: the store quarantines the file and reports a miss; no
/// variant is ever surfaced as artifacts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FormatError {
    /// The file is shorter than the fixed header.
    TruncatedHeader,
    /// The magic bytes are not `MCCSTORE`.
    BadMagic,
    /// The header CRC does not match (torn write inside the header).
    HeaderCrc,
    /// The version is one this reader does not understand.
    UnsupportedVersion(u32),
    /// The header's fingerprint echo disagrees with the key the caller
    /// looked up — a misfiled or forged object.
    FingerprintMismatch {
        /// The fingerprint the caller asked for.
        expected: u64,
        /// The fingerprint stored in the header.
        found: u64,
    },
    /// A section extends past the end of the file (torn tail).
    TruncatedSection(u32),
    /// A section's payload CRC does not match (bit rot / short write).
    SectionCrc(u32),
    /// The section structure is wrong: out-of-order, duplicated,
    /// unknown, or a mandatory section is missing.
    SectionTable(&'static str),
    /// A payload parsed but its contents are malformed.
    Malformed(&'static str),
    /// The decoded parts failed [`SchemaArtifacts::from_parts`]
    /// coherence validation.
    Artifacts(ArtifactsError),
}

impl fmt::Display for FormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FormatError::TruncatedHeader => write!(f, "file shorter than the header"),
            FormatError::BadMagic => write!(f, "bad magic (not an mcc-store object)"),
            FormatError::HeaderCrc => write!(f, "header checksum mismatch"),
            FormatError::UnsupportedVersion(v) => write!(f, "unsupported format version {v}"),
            FormatError::FingerprintMismatch { expected, found } => write!(
                f,
                "fingerprint mismatch: expected {expected:016x}, file says {found:016x}"
            ),
            FormatError::TruncatedSection(tag) => write!(f, "section {tag} truncated"),
            FormatError::SectionCrc(tag) => write!(f, "section {tag} checksum mismatch"),
            FormatError::SectionTable(why) => write!(f, "bad section table: {why}"),
            FormatError::Malformed(why) => write!(f, "malformed payload: {why}"),
            FormatError::Artifacts(e) => write!(f, "incoherent bundle: {e}"),
        }
    }
}

impl std::error::Error for FormatError {}

impl From<ArtifactsError> for FormatError {
    fn from(e: ArtifactsError) -> Self {
        FormatError::Artifacts(e)
    }
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_section(out: &mut Vec<u8>, tag: u32, payload: &[u8]) {
    put_u32(out, tag);
    put_u64(out, payload.len() as u64);
    out.extend_from_slice(payload);
    put_u32(out, crc32(payload));
}

fn graph_payload(bg: &BipartiteGraph) -> Vec<u8> {
    let g = bg.graph();
    let mut p = Vec::new();
    put_u32(&mut p, g.node_count() as u32);
    for v in g.nodes() {
        p.push(match bg.side(v) {
            Side::V1 => 0,
            Side::V2 => 1,
        });
        let label = g.label(v).as_bytes();
        put_u32(&mut p, label.len() as u32);
        p.extend_from_slice(label);
    }
    put_u32(&mut p, g.edge_count() as u32);
    for (a, b) in g.edges() {
        put_u32(&mut p, a.0);
        put_u32(&mut p, b.0);
    }
    p
}

fn classification_payload(c: &BipartiteClassification) -> Vec<u8> {
    vec![
        c.four_one as u8,
        c.six_two as u8,
        c.six_one as u8,
        c.v1_chordal as u8,
        c.v1_conformal as u8,
        c.v2_chordal as u8,
        c.v2_conformal as u8,
    ]
}

fn node_list_payload(nodes: &[NodeId]) -> Vec<u8> {
    let mut p = Vec::new();
    put_u32(&mut p, nodes.len() as u32);
    for v in nodes {
        put_u32(&mut p, v.0);
    }
    p
}

fn lemma1_payload(l1: &Lemma1Ordering) -> Vec<u8> {
    let mut p = node_list_payload(&l1.order);
    put_u32(&mut p, l1.join_tree.order.len() as u32);
    for e in &l1.join_tree.order {
        put_u32(&mut p, e.0);
    }
    for parent in &l1.join_tree.parent {
        put_u32(&mut p, parent.map_or(u32::MAX, |e| e.0));
    }
    p
}

/// Encodes `artifacts` under content key `fingerprint` into the v1
/// on-disk representation. Deterministic: equal bundles (and equal
/// fingerprints) produce identical bytes.
pub fn encode(fingerprint: u64, artifacts: &SchemaArtifacts) -> Vec<u8> {
    let mut sections: Vec<(u32, Vec<u8>)> = vec![
        (TAG_GRAPH, graph_payload(artifacts.bipartite())),
        (
            TAG_CLASSIFICATION,
            classification_payload(artifacts.classification()),
        ),
        (
            TAG_ELIMINATION,
            node_list_payload(artifacts.elimination_order()),
        ),
    ];
    // `lemma1` builds a route on its first use, so encoding forces both:
    // the bytes never depend on which routes were queried before.
    if let Some(l1) = artifacts.lemma1(Side::V2) {
        sections.push((TAG_LEMMA1_V2, lemma1_payload(l1)));
    }
    if let Some(l1) = artifacts.lemma1(Side::V1) {
        sections.push((TAG_LEMMA1_V1, lemma1_payload(l1)));
    }

    let mut out = Vec::new();
    out.extend_from_slice(&MAGIC);
    put_u32(&mut out, VERSION);
    put_u64(&mut out, fingerprint);
    put_u32(&mut out, sections.len() as u32);
    let header_crc = crc32(&out);
    put_u32(&mut out, header_crc);
    for (tag, payload) in &sections {
        push_section(&mut out, *tag, payload);
    }
    out
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

/// A bounds-checked little-endian reader over one section payload.
struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, at: 0 }
    }

    fn u8(&mut self) -> Result<u8, FormatError> {
        let b = *self
            .bytes
            .get(self.at)
            .ok_or(FormatError::Malformed("payload ends early"))?;
        self.at += 1;
        Ok(b)
    }

    fn u32(&mut self) -> Result<u32, FormatError> {
        let end = self
            .at
            .checked_add(4)
            .filter(|&e| e <= self.bytes.len())
            .ok_or(FormatError::Malformed("payload ends early"))?;
        let mut buf = [0u8; 4];
        buf.copy_from_slice(&self.bytes[self.at..end]);
        self.at = end;
        Ok(u32::from_le_bytes(buf))
    }

    fn take(&mut self, len: usize) -> Result<&'a [u8], FormatError> {
        let end = self
            .at
            .checked_add(len)
            .filter(|&e| e <= self.bytes.len())
            .ok_or(FormatError::Malformed("payload ends early"))?;
        let s = &self.bytes[self.at..end];
        self.at = end;
        Ok(s)
    }

    fn finish(&self) -> Result<(), FormatError> {
        if self.at == self.bytes.len() {
            Ok(())
        } else {
            Err(FormatError::Malformed("trailing bytes in payload"))
        }
    }
}

/// A `u32` count that is about to drive an allocation: reject counts
/// that could not possibly fit in the remaining payload, so a corrupt
/// length cannot balloon memory before the per-element parsing fails.
fn checked_count(
    cur: &Cursor<'_>,
    count: u32,
    min_bytes_each: usize,
) -> Result<usize, FormatError> {
    let count = count as usize;
    let remaining = cur.bytes.len() - cur.at;
    if count.saturating_mul(min_bytes_each) > remaining {
        return Err(FormatError::Malformed("count exceeds payload size"));
    }
    Ok(count)
}

fn parse_graph(payload: &[u8]) -> Result<BipartiteGraph, FormatError> {
    let mut cur = Cursor::new(payload);
    let raw_n = cur.u32()?;
    let n = checked_count(&cur, raw_n, 5)?;
    let mut builder = GraphBuilder::with_nodes(0);
    let mut side = Vec::with_capacity(n);
    for _ in 0..n {
        side.push(match cur.u8()? {
            0 => Side::V1,
            1 => Side::V2,
            _ => return Err(FormatError::Malformed("side byte out of range")),
        });
        let len = cur.u32()? as usize;
        let label = std::str::from_utf8(cur.take(len)?)
            .map_err(|_| FormatError::Malformed("label is not UTF-8"))?;
        builder.add_node(label);
    }
    let raw_m = cur.u32()?;
    let m = checked_count(&cur, raw_m, 8)?;
    for _ in 0..m {
        let a = cur.u32()? as usize;
        let b = cur.u32()? as usize;
        if a >= n || b >= n {
            return Err(FormatError::Malformed("edge endpoint out of range"));
        }
        builder
            .add_edge(NodeId::from_index(a), NodeId::from_index(b))
            .map_err(|_| FormatError::Malformed("invalid edge"))?;
    }
    cur.finish()?;
    BipartiteGraph::new(builder.build(), side)
        .map_err(|_| FormatError::Malformed("edge joins two same-side nodes"))
}

fn parse_classification(payload: &[u8]) -> Result<BipartiteClassification, FormatError> {
    let mut cur = Cursor::new(payload);
    let mut flag = || -> Result<bool, FormatError> {
        match cur.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(FormatError::Malformed("classification flag out of range")),
        }
    };
    let c = BipartiteClassification {
        four_one: flag()?,
        six_two: flag()?,
        six_one: flag()?,
        v1_chordal: flag()?,
        v1_conformal: flag()?,
        v2_chordal: flag()?,
        v2_conformal: flag()?,
    };
    cur.finish()?;
    Ok(c)
}

fn parse_node_list(cur: &mut Cursor<'_>) -> Result<Vec<NodeId>, FormatError> {
    let raw = cur.u32()?;
    let count = checked_count(cur, raw, 4)?;
    let mut nodes = Vec::with_capacity(count);
    for _ in 0..count {
        nodes.push(NodeId(cur.u32()?));
    }
    Ok(nodes)
}

fn parse_elimination(payload: &[u8]) -> Result<Vec<NodeId>, FormatError> {
    let mut cur = Cursor::new(payload);
    let nodes = parse_node_list(&mut cur)?;
    cur.finish()?;
    Ok(nodes)
}

fn parse_lemma1(payload: &[u8]) -> Result<Lemma1Ordering, FormatError> {
    let mut cur = Cursor::new(payload);
    let order = parse_node_list(&mut cur)?;
    let raw_m = cur.u32()?;
    let m = checked_count(&cur, raw_m, 8)?;
    let mut jt_order = Vec::with_capacity(m);
    for _ in 0..m {
        jt_order.push(EdgeId(cur.u32()?));
    }
    let mut parent = Vec::with_capacity(m);
    for _ in 0..m {
        let raw = cur.u32()?;
        parent.push(if raw == u32::MAX {
            None
        } else {
            Some(EdgeId(raw))
        });
    }
    cur.finish()?;
    Ok(Lemma1Ordering {
        order,
        join_tree: JoinTree {
            order: jt_order,
            parent,
        },
    })
}

/// Validates and decodes one on-disk object.
///
/// `expected_fingerprint` is the content key the caller looked the file
/// up under; pass `None` to accept whatever the header says (the
/// golden-fixture test does). Validation order: header magic/CRC →
/// version → fingerprint echo → per-section CRC → payload parse →
/// [`SchemaArtifacts::from_parts`] coherence. The returned fingerprint
/// is the header's echo.
pub fn decode(
    bytes: &[u8],
    expected_fingerprint: Option<u64>,
) -> Result<(u64, SchemaArtifacts), FormatError> {
    const HEADER_LEN: usize = 8 + 4 + 8 + 4 + 4;
    if bytes.len() < HEADER_LEN {
        return Err(FormatError::TruncatedHeader);
    }
    if bytes[..8] != MAGIC {
        return Err(FormatError::BadMagic);
    }
    let u32_at = |at: usize| {
        let mut buf = [0u8; 4];
        buf.copy_from_slice(&bytes[at..at + 4]);
        u32::from_le_bytes(buf)
    };
    let version = u32_at(8);
    let fingerprint = {
        let mut buf = [0u8; 8];
        buf.copy_from_slice(&bytes[12..20]);
        u64::from_le_bytes(buf)
    };
    let section_count = u32_at(20);
    let header_crc = u32_at(24);
    if header_crc != crc32(&bytes[..HEADER_LEN - 4]) {
        return Err(FormatError::HeaderCrc);
    }
    if version != VERSION {
        return Err(FormatError::UnsupportedVersion(version));
    }
    if let Some(expected) = expected_fingerprint {
        if expected != fingerprint {
            return Err(FormatError::FingerprintMismatch {
                expected,
                found: fingerprint,
            });
        }
    }

    // Walk the section table, CRC-checking each payload before parsing.
    let mut at = HEADER_LEN;
    let mut bipartite = None;
    let mut classification = None;
    let mut elimination = None;
    let mut lemma1_v2 = None;
    let mut lemma1_v1 = None;
    let mut last_tag = 0u32;
    for _ in 0..section_count {
        if at + 12 > bytes.len() {
            return Err(FormatError::TruncatedSection(last_tag));
        }
        let tag = u32_at(at);
        let len = {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(&bytes[at + 4..at + 12]);
            u64::from_le_bytes(buf)
        };
        let len = usize::try_from(len).map_err(|_| FormatError::TruncatedSection(tag))?;
        let payload_at = at + 12;
        let crc_at = payload_at
            .checked_add(len)
            .filter(|&e| e + 4 <= bytes.len())
            .ok_or(FormatError::TruncatedSection(tag))?;
        let payload = &bytes[payload_at..crc_at];
        if u32_at(crc_at) != crc32(payload) {
            return Err(FormatError::SectionCrc(tag));
        }
        if tag <= last_tag {
            return Err(FormatError::SectionTable("tags not strictly ascending"));
        }
        last_tag = tag;
        match tag {
            TAG_GRAPH => bipartite = Some(parse_graph(payload)?),
            TAG_CLASSIFICATION => classification = Some(parse_classification(payload)?),
            TAG_ELIMINATION => elimination = Some(parse_elimination(payload)?),
            TAG_LEMMA1_V2 => lemma1_v2 = Some(parse_lemma1(payload)?),
            TAG_LEMMA1_V1 => lemma1_v1 = Some(parse_lemma1(payload)?),
            _ => return Err(FormatError::SectionTable("unknown section tag")),
        }
        at = crc_at + 4;
    }
    if at != bytes.len() {
        return Err(FormatError::SectionTable(
            "trailing bytes after last section",
        ));
    }
    let bipartite = bipartite.ok_or(FormatError::SectionTable("missing graph section"))?;
    let classification =
        classification.ok_or(FormatError::SectionTable("missing classification section"))?;
    let elimination =
        elimination.ok_or(FormatError::SectionTable("missing elimination section"))?;

    let artifacts =
        SchemaArtifacts::from_parts(bipartite, classification, elimination, lemma1_v2, lemma1_v1)?;
    Ok((fingerprint, artifacts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcc_graph::bipartite::bipartite_from_lists;

    fn six_two_artifacts() -> SchemaArtifacts {
        let bg = bipartite_from_lists(
            &["a", "b", "c"],
            &["R1", "R2"],
            &[(0, 0), (1, 0), (1, 1), (2, 1)],
        );
        SchemaArtifacts::build(bg)
    }

    fn off_class_artifacts() -> SchemaArtifacts {
        let bg = bipartite_from_lists(
            &["x1", "x2", "x3"],
            &["y1", "y2", "y3"],
            &[(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (0, 2)],
        );
        SchemaArtifacts::build(bg)
    }

    #[test]
    fn round_trip_is_identity_on_bytes() {
        for a in [six_two_artifacts(), off_class_artifacts()] {
            let bytes = encode(42, &a);
            let (fp, decoded) = decode(&bytes, Some(42)).expect("own encoding decodes");
            assert_eq!(fp, 42);
            assert_eq!(decoded.bipartite(), a.bipartite());
            assert_eq!(decoded.classification(), a.classification());
            assert_eq!(decoded.elimination_order(), a.elimination_order());
            for side in [Side::V1, Side::V2] {
                assert_eq!(
                    decoded.lemma1(side).map(|l| &l.order),
                    a.lemma1(side).map(|l| &l.order)
                );
            }
            // Re-encoding the decoded bundle is byte-identical.
            assert_eq!(encode(42, &decoded), bytes);
        }
    }

    #[test]
    fn every_single_byte_flip_is_rejected() {
        let a = six_two_artifacts();
        let bytes = encode(7, &a);
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x01;
            assert!(
                decode(&corrupt, Some(7)).is_err(),
                "flipping byte {i} went undetected"
            );
        }
    }

    #[test]
    fn every_truncation_is_rejected() {
        let a = six_two_artifacts();
        let bytes = encode(7, &a);
        for len in 0..bytes.len() {
            assert!(
                decode(&bytes[..len], Some(7)).is_err(),
                "truncation to {len} bytes went undetected"
            );
        }
    }

    #[test]
    fn wrong_fingerprint_is_rejected_without_parsing() {
        let bytes = encode(7, &six_two_artifacts());
        assert_eq!(
            decode(&bytes, Some(8)).err(),
            Some(FormatError::FingerprintMismatch {
                expected: 8,
                found: 7
            })
        );
        // With no expectation the same bytes decode fine.
        assert!(decode(&bytes, None).is_ok());
    }

    #[test]
    fn future_versions_are_rejected_cleanly() {
        let a = six_two_artifacts();
        let mut bytes = encode(7, &a);
        bytes[8..12].copy_from_slice(&2u32.to_le_bytes());
        // Patch the header CRC so only the version is "wrong".
        let crc = crc32(&bytes[..24]);
        bytes[24..28].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(
            decode(&bytes, Some(7)).err(),
            Some(FormatError::UnsupportedVersion(2))
        );
    }

    #[test]
    fn oversized_counts_do_not_balloon_memory() {
        // A graph section claiming u32::MAX nodes in a tiny payload must
        // be rejected by the count guard, not by an OOM.
        let a = six_two_artifacts();
        let mut bytes = encode(7, &a);
        // The graph payload starts right after the header + section
        // preamble (8+4+8+4+4 header, 4 tag, 8 len).
        let payload_at = 28 + 12;
        bytes[payload_at..payload_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        // Recompute the section CRC so the corruption reaches the parser.
        let err = decode_with_fixed_crc(&mut bytes, payload_at);
        assert_eq!(err, FormatError::Malformed("count exceeds payload size"));
    }

    /// Repairs the first section's CRC after a test mutation, then
    /// decodes — isolating parser-level defenses from the CRC layer.
    fn decode_with_fixed_crc(bytes: &mut [u8], payload_at: usize) -> FormatError {
        let len = {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(&bytes[payload_at - 8..payload_at]);
            u64::from_le_bytes(buf) as usize
        };
        let crc = crc32(&bytes[payload_at..payload_at + len]);
        bytes[payload_at + len..payload_at + len + 4].copy_from_slice(&crc.to_le_bytes());
        decode(bytes, Some(7)).expect_err("mutated payload must not decode")
    }
}
