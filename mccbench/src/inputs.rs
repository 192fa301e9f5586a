//! Seeded input generation: the schema set, the request pool, the
//! request stream and the churn schedule of each workload. Everything
//! here is a pure function of `(workload, seed, ops)`; nothing is timed.

use mcc::chordality::classify_bipartite;
use mcc::datamodel::{Relation, RelationalSchema};
use mcc::gen::block_tree::BlockTreeShape;
use mcc::gen::join_tree::JoinTreeShape;
use mcc::gen::{random_alpha_acyclic, random_bipartite, random_six_two_block_tree};
use mcc::graph::{is_connected, BipartiteGraph, NodeSet, Side};

/// Size buckets per class; requests are spread evenly across them.
pub const BUCKETS: usize = 4;
/// Schemas per (class, bucket) stratum on the serving classes.
const PER_STRATUM: usize = 8;
/// Schemas per size bucket off-class. Off-class schemas classify fast,
/// so it takes more of them to make set-up real classification work.
const OFFCLASS_PER_STRATUM: usize = 128;
/// Requests in the pool of each schema.
pub const PER_SCHEMA: usize = 16;
/// Tickets the closed-loop client keeps in flight on every engine workload.
pub const WINDOW: usize = 1;
/// Engine worker threads.
pub const WORKERS: usize = 2;
/// Routing cap of `offclass_ladder`: more terminals go straight to KMB.
pub const OFFCLASS_MAX_EXACT: usize = 7;
/// DP-table byte cap of `offclass_ladder` (admission before allocation).
pub const OFFCLASS_MAX_DP_BYTES: u64 = 150_000;
/// Requests at the head of the stream whose exact optimum is computed
/// after the timed phase for `cost_ratio`.
pub const SUBSAMPLE: usize = 72;

/// Block counts of (6,2) block trees: bucket `b` spreads its schemas
/// evenly over `[B[b], B[b + 1])`, so sizes (and artifact build times)
/// form a continuous range rather than four clusters.
const SIX_TWO_BLOCKS: [usize; BUCKETS + 1] = [4, 8, 16, 26, 38];
/// Relation counts of α-acyclic join-tree schemas, spread the same way.
const ALPHA_RELATIONS: [usize; BUCKETS + 1] = [6, 12, 24, 44, 72];
/// Nodes per side of the off-class random bipartite schemas, per bucket.
/// Every size is above 64 nodes in total, where `QueryEngine` stops
/// running its own exact DP.
const OFFCLASS_SIDE: [usize; BUCKETS] = [34, 38, 42, 46];

/// SplitMix64: a tiny seeded generator for the stream and the schedule.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x6d63_635f_6265_6e63)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A seed for one derived object, so adding a draw elsewhere never
/// shifts the inputs of another.
pub fn derive(seed: u64, tag: u64, index: u64) -> u64 {
    let mut r = Rng::new(seed ^ tag.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ index);
    r.next_u64()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    WarmServe,
    SchemaChurn,
    OffclassLadder,
    EmbeddedQuery,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::WarmServe,
        Workload::SchemaChurn,
        Workload::OffclassLadder,
        Workload::EmbeddedQuery,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::WarmServe => "warm_serve",
            Workload::SchemaChurn => "schema_churn",
            Workload::OffclassLadder => "offclass_ladder",
            Workload::EmbeddedQuery => "embedded_query",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Operations one untraced run performs per requested second. The
    /// run is count-driven (so every route, rebuild and degradation is a
    /// function of the seed); these rates size it to about `--seconds`
    /// on a 2-vCPU x86-64 VM.
    pub fn ops_per_second(self) -> u64 {
        match self {
            Workload::WarmServe => 20_000,
            Workload::SchemaChurn => 17_000,
            Workload::OffclassLadder => 2_000,
            Workload::EmbeddedQuery => 16_000,
        }
    }

    pub fn uses_engine(self) -> bool {
        self != Workload::EmbeddedQuery
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// (6,2)-chordal: Steiner requests, Algorithm 2.
    SixTwo,
    /// α-acyclic `H¹` but not (6,2): pseudo(V2) requests, Algorithm 1.
    Alpha,
    /// Neither `H¹` nor `H²` α-acyclic: exact DP / KMB.
    Cyclic,
}

/// The class of a bipartite schema graph, `None` when it is on neither
/// serving class and not off-class on both sides (e.g. `H²` α-acyclic).
pub fn class_of(bg: &BipartiteGraph) -> Option<Class> {
    let c = classify_bipartite(bg);
    if c.six_two {
        Some(Class::SixTwo)
    } else if c.h1_alpha_acyclic() {
        Some(Class::Alpha)
    } else if !c.h2_alpha_acyclic() {
        Some(Class::Cyclic)
    } else {
        None
    }
}

/// One schema of a workload, with the perturbed variant churn swaps in.
#[derive(Debug, Clone)]
pub struct SchemaSpec {
    pub schema: RelationalSchema,
    pub perturbed: RelationalSchema,
    pub class: Class,
    pub bucket: usize,
}

/// One pooled request: object names on one schema.
#[derive(Debug, Clone)]
pub struct Request {
    pub schema: usize,
    pub objects: Vec<String>,
    /// `true`: pseudo-Steiner w.r.t. V2 (minimise relations).
    pub pseudo: bool,
}

impl Request {
    pub fn names(&self) -> Vec<&str> {
        self.objects.iter().map(String::as_str).collect()
    }
}

/// A schema-level mutation of `schema_churn`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// `replace` with the perturbed variant (one edge added or removed).
    Perturb,
    /// `replace` back to the original, whose object is still on disk.
    Restore,
    /// `invalidate`: unlink the disk object and force a rebuild.
    Invalidate,
}

/// The churn schedule: which operation indices mutate which schema.
#[derive(Debug, Clone)]
pub struct Schedule {
    pub period: u64,
    /// Schema of each perturb/restore/invalidate triple, in order.
    pub targets: Vec<usize>,
}

impl Schedule {
    /// The mutation at operation `op`, if any: every `period`-th
    /// operation, rotating perturb → restore → invalidate on one target
    /// before moving to the next. A pure function of the operation count.
    pub fn at(&self, op: u64) -> Option<(usize, Mutation)> {
        (op % self.period == self.period - 1).then(|| self.mutation(op / self.period))
    }

    /// The `m`-th mutation of the rotation.
    pub fn mutation(&self, m: u64) -> (usize, Mutation) {
        let target = self.targets[(m / 3) as usize % self.targets.len()];
        let kind = match m % 3 {
            0 => Mutation::Perturb,
            1 => Mutation::Restore,
            _ => Mutation::Invalidate,
        };
        (target, kind)
    }
}

/// Everything a run needs, generated from the seed.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub workload: Workload,
    pub schemas: Vec<SchemaSpec>,
    pub pool: Vec<Request>,
    /// Pool index of each operation of the timed phase.
    pub stream: Vec<u32>,
    /// Mutations, interleaved with the stream on `schema_churn` only.
    pub schedule: Schedule,
}

impl Inputs {
    pub fn generate(workload: Workload, seed: u64, ops: u64) -> Inputs {
        let classes: &[Class] = match workload {
            Workload::OffclassLadder => &[Class::Cyclic],
            _ => &[Class::SixTwo, Class::Alpha],
        };
        let per_stratum = match workload {
            Workload::OffclassLadder => OFFCLASS_PER_STRATUM,
            _ => PER_STRATUM,
        };
        let mut schemas = Vec::new();
        for &class in classes {
            for bucket in 0..BUCKETS {
                for i in 0..per_stratum {
                    let index = (bucket * per_stratum + i) as u64;
                    let s = derive(seed, class as u64 + 1, index);
                    let name = format!("{}_{}", class_tag(class), schemas.len());
                    let schema =
                        make_schema(class, bucket, i as f64 / per_stratum as f64, s, &name);
                    let perturbed = perturb(&schema, class, derive(s, 7, 0));
                    schemas.push(SchemaSpec {
                        schema,
                        perturbed,
                        class,
                        bucket,
                    });
                }
            }
        }
        let mut pool = Vec::with_capacity(schemas.len() * PER_SCHEMA);
        for (si, spec) in schemas.iter().enumerate() {
            let bg = spec
                .schema
                .to_bipartite()
                .expect("generated schemas are valid");
            for j in 0..PER_SCHEMA {
                pool.push(make_request(
                    si,
                    spec.class,
                    j,
                    &bg,
                    derive(seed, 11, (si * PER_SCHEMA + j) as u64),
                ));
            }
        }
        let strata = classes.len() * BUCKETS;
        let mut rng = Rng::new(derive(seed, 13, 0));
        let stream = (0..ops)
            .map(|i| {
                let stratum = (i % strata as u64) as usize;
                let j = ((i / strata as u64) % PER_SCHEMA as u64) as usize;
                let schema = stratum * per_stratum + zipf(&mut rng, per_stratum);
                (schema * PER_SCHEMA + j) as u32
            })
            .collect();
        // Mutation targets visit the (class, bucket) strata in turn, so
        // every seed mutates the same mix of schema sizes.
        let mut r = Rng::new(derive(seed, 17, 0));
        let rounds: Vec<Vec<usize>> = (0..strata)
            .map(|stratum| {
                let mut order: Vec<usize> = (0..per_stratum).collect();
                for i in (1..order.len()).rev() {
                    order.swap(i, r.below(i + 1));
                }
                order
                    .into_iter()
                    .map(|i| stratum * per_stratum + i)
                    .collect()
            })
            .collect();
        let targets = (0..per_stratum)
            .flat_map(|round| rounds.iter().map(move |order| order[round]))
            .collect();
        // `schema_churn` spreads one full rotation (three mutations per
        // schema) evenly over the stream.
        let schedule = Schedule {
            period: (ops / (3 * schemas.len() as u64)).max(1),
            targets,
        };
        Inputs {
            workload,
            schemas,
            pool,
            stream,
            schedule,
        }
    }

    /// A byte-exact rendering of the inputs, for the determinism tests.
    #[cfg(test)]
    pub fn fingerprint_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for s in &self.schemas {
            out.extend(s.schema.fingerprint().to_le_bytes());
            out.extend(s.perturbed.fingerprint().to_le_bytes());
        }
        for r in &self.pool {
            out.extend((r.schema as u64).to_le_bytes());
            for o in &r.objects {
                out.extend(o.as_bytes());
                out.push(0);
            }
            out.push(u8::from(r.pseudo));
        }
        for &p in &self.stream {
            out.extend(p.to_le_bytes());
        }
        for &t in &self.schedule.targets {
            out.extend((t as u64).to_le_bytes());
        }
        out
    }
}

fn class_tag(class: Class) -> &'static str {
    match class {
        Class::SixTwo => "six_two",
        Class::Alpha => "alpha",
        Class::Cyclic => "offclass",
    }
}

/// Zipf(1) over `n` ranks: rank `r` has weight `1 / (r + 1)`.
fn zipf(rng: &mut Rng, n: usize) -> usize {
    let total: f64 = (1..=n).map(|r| 1.0 / r as f64).sum();
    let mut x = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * total;
    for r in 0..n {
        x -= 1.0 / (r + 1) as f64;
        if x < 0.0 {
            return r;
        }
    }
    n - 1
}

/// A relational schema over a bipartite graph: `V1` nodes are the
/// attributes, `V2` nodes the relations, labels kept.
fn schema_of(bg: &BipartiteGraph, name: &str) -> RelationalSchema {
    let g = bg.graph();
    let mut index = vec![usize::MAX; g.node_count()];
    let mut attributes = Vec::new();
    for v in bg.side_nodes(Side::V1) {
        index[v.index()] = attributes.len();
        attributes.push(g.label(v).to_string());
    }
    let relations = bg
        .side_nodes(Side::V2)
        .map(|r| {
            let mut attrs: Vec<usize> = g.neighbors(r).iter().map(|a| index[a.index()]).collect();
            attrs.sort_unstable();
            Relation {
                name: g.label(r).to_string(),
                attributes: attrs,
            }
        })
        .collect();
    RelationalSchema {
        name: name.to_string(),
        attributes,
        relations,
    }
}

/// Candidates drawn per schema; the one of median `|V|·|A|` is kept, so
/// a schema's cost depends less on the seed than a single draw would.
const DRAWS: usize = 7;

/// A connected schema of `class` whose size sits at fraction `at` of its
/// bucket's range: the median-`|V|·|A|` one of `DRAWS` valid draws.
fn make_schema(class: Class, bucket: usize, at: f64, seed: u64, name: &str) -> RelationalSchema {
    let mut valid: Vec<(usize, RelationalSchema)> = Vec::with_capacity(DRAWS);
    let spread = |range: &[usize; BUCKETS + 1]| {
        range[bucket] + ((range[bucket + 1] - range[bucket]) as f64 * at) as usize
    };
    for attempt in 0..1000u64 {
        let s = derive(seed, 3, attempt);
        let candidate = match class {
            Class::SixTwo => {
                let shape = BlockTreeShape {
                    blocks: spread(&SIX_TWO_BLOCKS),
                    max_block: 4,
                };
                schema_of(&random_six_two_block_tree(shape, s), name)
            }
            Class::Alpha => {
                let shape = JoinTreeShape {
                    num_edges: spread(&ALPHA_RELATIONS),
                    max_shared: 3,
                    max_fresh: 3,
                };
                let (h, _) = random_alpha_acyclic(shape, s);
                RelationalSchema::from_hypergraph(name, &h)
            }
            Class::Cyclic => {
                let n = OFFCLASS_SIDE[bucket];
                schema_of(&random_bipartite(n, n, 4.0 / n as f64, s), name)
            }
        };
        let Ok(bg) = candidate.to_bipartite() else {
            continue;
        };
        if !is_connected(bg.graph()) {
            continue;
        }
        valid.push((bg.graph().node_count() * bg.graph().edge_count(), candidate));
        if valid.len() < DRAWS {
            continue;
        }
        // Classification is the expensive check: run it from the median
        // outwards and keep the first candidate in the class.
        valid.sort_by_key(|(va, _)| *va);
        let mut order: Vec<usize> = (0..DRAWS).collect();
        order.sort_by_key(|&i| i.abs_diff(DRAWS / 2));
        for i in order {
            let bg = valid[i].1.to_bipartite().expect("checked above");
            if class_of(&bg) == Some(class) {
                return valid.swap_remove(i).1;
            }
        }
        valid.clear();
    }
    panic!("no {class:?} schema in 1000 draws (bucket {bucket})")
}

/// One attribute removed from (or, failing that, added to) one
/// relation, keeping the schema connected, every relation nonempty, and
/// the class unchanged (so every request keeps its route and only its
/// answer may move). Removals come first: on block trees they always
/// keep (6,2), while additions almost never do.
pub fn perturb(schema: &RelationalSchema, class: Class, seed: u64) -> RelationalSchema {
    let mut rng = Rng::new(seed);
    for attempt in 0..400 {
        let mut out = schema.clone();
        let r = rng.below(out.relations.len());
        let rel = &mut out.relations[r];
        if attempt < 200 {
            if rel.attributes.len() < 2 {
                continue;
            }
            rel.attributes.remove(rng.below(rel.attributes.len()));
        } else {
            let a = rng.below(out.attributes.len());
            match rel.attributes.binary_search(&a) {
                Ok(_) => continue,
                Err(pos) => rel.attributes.insert(pos, a),
            }
        }
        let Ok(bg) = out.to_bipartite() else { continue };
        if is_connected(bg.graph()) && class_of(&bg) == Some(class) {
            return out;
        }
    }
    panic!(
        "no class-preserving perturbation of {} in 400 draws",
        schema.name
    )
}

/// Request `j` of a schema: `2 + j mod 5` terminals (2–6) on the serving
/// classes, `2 + j mod 9` (2–10, across the exact cap) off-class.
fn make_request(schema: usize, class: Class, j: usize, bg: &BipartiteGraph, seed: u64) -> Request {
    let g = bg.graph();
    let (k, candidates, pseudo) = match class {
        Class::SixTwo => (2 + j % 5, NodeSet::full(g.node_count()), false),
        Class::Alpha => (2 + j % 5, bg.v1_set(), true),
        Class::Cyclic => (2 + j % 9, NodeSet::full(g.node_count()), false),
    };
    let mut pool = candidates.to_vec();
    let mut rng = Rng::new(seed);
    let mut objects = Vec::with_capacity(k);
    for _ in 0..k.min(pool.len()) {
        let v = pool.swap_remove(rng.below(pool.len()));
        objects.push(g.label(v).to_string());
    }
    Request {
        schema,
        objects,
        pseudo,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        for w in Workload::ALL {
            let a = Inputs::generate(w, 5, 3_000).fingerprint_bytes();
            let b = Inputs::generate(w, 5, 3_000).fingerprint_bytes();
            let c = Inputs::generate(w, 6, 3_000).fingerprint_bytes();
            assert_eq!(a, b, "{}", w.name());
            assert_ne!(a, c, "{}", w.name());
        }
    }

    #[test]
    fn schemas_land_on_their_classes() {
        for seed in [1, 2] {
            for w in Workload::ALL {
                let inputs = Inputs::generate(w, seed, 0);
                for spec in &inputs.schemas {
                    for schema in [&spec.schema, &spec.perturbed] {
                        let bg = schema.to_bipartite().unwrap();
                        let c = classify_bipartite(&bg);
                        assert!(is_connected(bg.graph()));
                        match w {
                            Workload::OffclassLadder => {
                                assert!(!c.six_two && !c.h1_alpha_acyclic());
                                assert!(!c.h2_alpha_acyclic());
                            }
                            _ => assert!(c.six_two || c.h1_alpha_acyclic()),
                        }
                        assert_eq!(class_of(&bg), Some(spec.class));
                    }
                }
            }
        }
    }

    #[test]
    fn churn_schedule_is_a_function_of_the_op_count() {
        let inputs = Inputs::generate(Workload::SchemaChurn, 9, 0);
        let s = inputs.schedule;
        let again = Inputs::generate(Workload::SchemaChurn, 9, 0).schedule;
        let ops = 10 * s.period * 3;
        let mutations: Vec<_> = (0..ops).filter_map(|op| s.at(op)).collect();
        assert_eq!(mutations.len() as u64, ops / s.period);
        for op in 0..ops {
            assert_eq!(s.at(op), again.at(op), "op {op}");
        }
        for triple in mutations.chunks(3) {
            assert_eq!(triple[0].0, triple[1].0);
            assert_eq!(triple[1].0, triple[2].0);
            let kinds: Vec<_> = triple.iter().map(|m| m.1).collect();
            assert_eq!(
                kinds,
                [Mutation::Perturb, Mutation::Restore, Mutation::Invalidate]
            );
        }
    }
}
