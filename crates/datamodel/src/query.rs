//! The logically independent query interface of the introduction: the
//! user names objects; the engine finds a minimal connection.

use crate::relational::{RelationalSchema, RelationalSchemaError};
use mcc_chordality::{classify_bipartite, BipartiteClassification};
use mcc_graph::{
    BipartiteGraph, BudgetExceeded, CancelToken, NodeId, NodeSet, Side, SolveBudget, Stage,
    Workspace,
};
use mcc_steiner::{
    algorithm1_budgeted_in, algorithm2_budgeted_in, steiner_exact_budgeted, steiner_kmb_budgeted,
    Degraded, SolveError, SteinerInstance, SteinerTree,
};
use std::cell::RefCell;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Which solver produced an interpretation — the provenance the paper's
/// complexity map dictates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Algorithm 2 (Theorem 5): true minimum-node connection;
    /// applicable because the schema is (6,2)-chordal.
    Algorithm2,
    /// Algorithm 1 (Theorems 3–4): minimum-relation connection;
    /// applicable because the schema hypergraph is α-acyclic.
    Algorithm1,
    /// Exact Dreyfus–Wagner (exponential in the query size): used on
    /// off-class schemas when the query is small enough.
    Exact,
    /// KMB-style heuristic: used as the last resort.
    Heuristic,
}

/// One interpretation of a query: a connection over the named objects.
#[derive(Debug, Clone)]
pub struct Interpretation {
    /// The connecting tree.
    pub tree: SteinerTree,
    /// How it was computed.
    pub strategy: Strategy,
    /// Names of the relations used (V2 nodes of the tree).
    pub relations: Vec<String>,
    /// Names of the attributes used (V1 nodes of the tree).
    pub attributes: Vec<String>,
    /// Set when the intended route tripped its budget and the engine fell
    /// back to the heuristic — the connection is valid but possibly
    /// non-minimal.
    pub degraded: Option<Degraded>,
}

impl Interpretation {
    /// Total number of objects in the connection.
    pub fn node_cost(&self) -> usize {
        self.tree.node_cost()
    }

    /// Number of auxiliary objects (beyond the query's own terminals).
    pub fn auxiliary_cost(&self, terminals: &NodeSet) -> usize {
        self.tree.node_cost() - terminals.len()
    }
}

/// Query failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// A name in the query matches no attribute or relation.
    UnknownName(String),
    /// The named objects lie in different connected components: no
    /// connection exists.
    Disconnected,
    /// The schema itself failed validation.
    Schema(RelationalSchemaError),
    /// The solve exhausted its [`SolveBudget`] and no cheaper fallback
    /// remained (the heuristic itself tripped, or none applies).
    Budget(BudgetExceeded),
    /// A solver invariant broke (or a solver panicked); the engine caught
    /// it at the query boundary instead of unwinding into the caller.
    Internal(String),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::UnknownName(n) => write!(f, "unknown object name {n:?}"),
            QueryError::Disconnected => write!(f, "the named objects cannot be connected"),
            QueryError::Schema(e) => write!(f, "invalid schema: {e}"),
            QueryError::Budget(e) => write!(f, "query exceeded its solve budget: {e}"),
            QueryError::Internal(detail) => write!(f, "internal solver error: {detail}"),
        }
    }
}

impl std::error::Error for QueryError {}

/// A prepared query engine over a relational schema.
///
/// ```
/// use mcc_datamodel::{QueryEngine, RelationalSchema};
///
/// let schema = RelationalSchema::from_lists(
///     "hr",
///     &["emp", "dept", "budget"],
///     &[("WORKS_IN", &[0, 1]), ("FUNDING", &[1, 2])],
/// );
/// let engine = QueryEngine::new(schema).unwrap();
/// let it = engine.connect(&["emp", "budget"]).unwrap();
/// assert_eq!(it.relations.len(), 2); // WORKS_IN ⋈ FUNDING over dept
/// ```
#[derive(Debug, Clone)]
pub struct QueryEngine {
    schema: RelationalSchema,
    bipartite: BipartiteGraph,
    class: BipartiteClassification,
    budget: SolveBudget,
    ws: RefCell<Workspace>,
}

impl QueryEngine {
    /// Builds the engine: converts the schema and classifies it once.
    /// Solves run under the default [`SolveBudget`] (no deadline, default
    /// memory admission); see [`QueryEngine::with_budget`].
    pub fn new(schema: RelationalSchema) -> Result<Self, QueryError> {
        Self::with_budget(schema, SolveBudget::default())
    }

    /// As [`QueryEngine::new`], with every solve governed by `budget`.
    /// When the polynomial or exact route trips the budget, the engine
    /// degrades to the heuristic where that can help (recorded on
    /// [`Interpretation::degraded`]) and otherwise reports
    /// [`QueryError::Budget`].
    pub fn with_budget(schema: RelationalSchema, budget: SolveBudget) -> Result<Self, QueryError> {
        let bipartite = schema.to_bipartite().map_err(QueryError::Schema)?;
        let class = classify_bipartite(&bipartite);
        Ok(QueryEngine {
            schema,
            bipartite,
            class,
            budget,
            ws: RefCell::new(Workspace::new()),
        })
    }

    /// The budget governing every solve of this engine.
    pub fn budget(&self) -> &SolveBudget {
        &self.budget
    }

    /// The underlying schema.
    pub fn schema(&self) -> &RelationalSchema {
        &self.schema
    }

    /// The schema's bipartite graph (attributes on `V1`, relations on
    /// `V2`).
    pub fn graph(&self) -> &BipartiteGraph {
        &self.bipartite
    }

    /// The classification computed once at construction; its `six_two`
    /// and α-acyclicity bits pick every query's route.
    pub fn classification(&self) -> BipartiteClassification {
        self.class
    }

    /// Resolves query names to node ids.
    pub fn resolve(&self, names: &[&str]) -> Result<NodeSet, QueryError> {
        let g = self.bipartite.graph();
        let mut terminals = NodeSet::new(g.node_count());
        for name in names {
            match g.node_by_label(name) {
                Some(v) => {
                    terminals.insert(v);
                }
                None => return Err(QueryError::UnknownName(name.to_string())),
            }
        }
        Ok(terminals)
    }

    /// Answers a query: the most immediate interpretation — the minimal
    /// connection among the named objects, computed by the strongest
    /// algorithm the schema's class licenses.
    pub fn connect(&self, names: &[&str]) -> Result<Interpretation, QueryError> {
        let terminals = self.resolve(names)?;
        self.connect_terminals(&terminals)
    }

    /// Answers several queries in one pass: the schema-level state —
    /// classification, the bipartite graph with its dense adjacency
    /// rows, and the warm shared workspace — is reused across members,
    /// so a batch of `k` queries pays schema work zero times and scratch
    /// growth once. Results come back in input order, one per query; a
    /// failing member (unknown name, budget trip, disconnection) does
    /// not abort the rest.
    ///
    /// ```
    /// use mcc_datamodel::{QueryEngine, RelationalSchema};
    ///
    /// let schema = RelationalSchema::from_lists(
    ///     "hr",
    ///     &["emp", "dept", "budget"],
    ///     &[("WORKS_IN", &[0, 1]), ("FUNDING", &[1, 2])],
    /// );
    /// let engine = QueryEngine::new(schema).unwrap();
    /// let answers = engine.solve_batch(&[
    ///     &["emp", "budget"][..],
    ///     &["emp", "nonsense"][..],
    /// ]);
    /// assert!(answers[0].is_ok());
    /// assert!(answers[1].is_err()); // unknown name fails alone
    /// ```
    pub fn solve_batch(&self, queries: &[&[&str]]) -> Vec<Result<Interpretation, QueryError>> {
        queries
            .iter()
            .map(|names| {
                let terminals = self.resolve(names)?;
                self.connect_terminals(&terminals)
            })
            .collect()
    }

    /// As [`QueryEngine::connect`], from already-resolved terminals.
    ///
    /// Each call starts a fresh [`CancelToken`] from the engine's budget,
    /// so a wall-clock deadline is per query, not per engine lifetime. A
    /// panic anywhere in the solve is caught here: the shared workspace
    /// is poisoned (and healed on the next call) and the panic surfaces
    /// as [`QueryError::Internal`].
    pub fn connect_terminals(&self, terminals: &NodeSet) -> Result<Interpretation, QueryError> {
        {
            let mut ws = self.ws.borrow_mut();
            if ws.is_poisoned() {
                ws.reset();
            }
        }
        let token = self.budget.start();
        match catch_unwind(AssertUnwindSafe(|| self.route(terminals, &token))) {
            Ok(result) => {
                result.map(|(tree, strategy, degraded)| self.interpret(tree, strategy, degraded))
            }
            Err(payload) => {
                if let Ok(mut ws) = self.ws.try_borrow_mut() {
                    ws.poison();
                }
                Err(QueryError::Internal(panic_message(&payload)))
            }
        }
    }

    /// Picks the strongest licensed algorithm and runs it under `token`.
    /// The off-class exact route degrades to the heuristic on a budget
    /// trip (same token: one deadline spans both attempts); the
    /// polynomial routes do not — nothing cheaper is available.
    fn route(
        &self,
        terminals: &NodeSet,
        token: &CancelToken,
    ) -> Result<(SteinerTree, Strategy, Option<Degraded>), QueryError> {
        let g = self.bipartite.graph();
        if self.class.six_two {
            let order: Vec<NodeId> = g.nodes().collect();
            let mut ws = self.ws.borrow_mut();
            let tree = algorithm2_budgeted_in(&mut ws, g, terminals, &order, &self.budget, token)
                .map_err(solve_error)?;
            Ok((tree, Strategy::Algorithm2, None))
        } else if self.class.h1_alpha_acyclic() {
            let mut ws = self.ws.borrow_mut();
            let out =
                algorithm1_budgeted_in(&mut ws, &self.bipartite, terminals, &self.budget, token)
                    .map_err(solve_error)?;
            Ok((out.tree, Strategy::Algorithm1, None))
        } else if terminals.len() <= 10 && g.node_count() <= 64 {
            let inst = SteinerInstance::new(g.clone(), terminals.clone());
            match steiner_exact_budgeted(&inst, &self.budget, token) {
                Ok(sol) => Ok((sol.tree, Strategy::Exact, None)),
                Err(SolveError::Budget(reason)) => {
                    let tree = steiner_kmb_budgeted(g, terminals, &self.budget, token)
                        .map_err(solve_error)?;
                    let degraded = Degraded {
                        from: Stage::ExactDp,
                        reason,
                    };
                    Ok((tree, Strategy::Heuristic, Some(degraded)))
                }
                Err(e) => Err(solve_error(e)),
            }
        } else {
            let tree =
                steiner_kmb_budgeted(g, terminals, &self.budget, token).map_err(solve_error)?;
            Ok((tree, Strategy::Heuristic, None))
        }
    }

    fn interpret(
        &self,
        tree: SteinerTree,
        strategy: Strategy,
        degraded: Option<Degraded>,
    ) -> Interpretation {
        let g = self.bipartite.graph();
        let name_of = |v: NodeId| g.label(v).to_string();
        let relations = tree
            .nodes
            .iter()
            .filter(|&v| self.bipartite.side(v) == Side::V2)
            .map(name_of)
            .collect();
        let attributes = tree
            .nodes
            .iter()
            .filter(|&v| self.bipartite.side(v) == Side::V1)
            .map(name_of)
            .collect();
        Interpretation {
            tree,
            strategy,
            relations,
            attributes,
            degraded,
        }
    }
}

/// Maps the solver taxonomy onto query errors. `NotAlphaAcyclic` is an
/// internal contradiction here: the engine only routes to Algorithm 1
/// after its own classification said the schema is α-acyclic.
fn solve_error(e: SolveError) -> QueryError {
    match e {
        SolveError::Disconnected => QueryError::Disconnected,
        SolveError::Budget(b) => QueryError::Budget(b),
        SolveError::NotAlphaAcyclic => QueryError::Internal(
            "schema classified α-acyclic but Algorithm 1 rejected it".to_string(),
        ),
        SolveError::Internal { stage, detail } => {
            QueryError::Internal(format!("{stage}: {detail}"))
        }
    }
}

/// Best-effort rendering of a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

impl PartialEq for Interpretation {
    /// Interpretations compare by tree and strategy (the name lists are
    /// derived data).
    fn eq(&self, other: &Self) -> bool {
        self.tree == other.tree && self.strategy == other.strategy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acyclic_schema() -> RelationalSchema {
        RelationalSchema::from_lists(
            "emp",
            &["emp_id", "name", "dept", "budget"],
            &[("EMP", &[0, 1, 2]), ("DEPT", &[2, 3])],
        )
    }

    #[test]
    fn connects_attributes_across_relations() {
        let engine = QueryEngine::new(acyclic_schema()).unwrap();
        let it = engine.connect(&["name", "budget"]).unwrap();
        assert!(it.relations.contains(&"EMP".to_string()));
        assert!(it.relations.contains(&"DEPT".to_string()));
        assert!(it.attributes.contains(&"dept".to_string())); // the join attribute
        assert!(it.node_cost() >= 4);
    }

    #[test]
    fn strategy_matches_schema_class() {
        // The acyclic sample is in fact γ-acyclic (two overlapping
        // relations), so Algorithm 2 fires.
        let engine = QueryEngine::new(acyclic_schema()).unwrap();
        let it = engine.connect(&["name", "budget"]).unwrap();
        assert_eq!(it.strategy, Strategy::Algorithm2);

        // A cyclic schema falls back to the exact solver.
        let cyc = RelationalSchema::from_lists(
            "cyc",
            &["a", "b", "c"],
            &[("r1", &[0, 1]), ("r2", &[1, 2]), ("r3", &[0, 2])],
        );
        let engine = QueryEngine::new(cyc).unwrap();
        let it = engine.connect(&["a", "b"]).unwrap();
        assert_eq!(it.strategy, Strategy::Exact);
        // a and b co-occur in r1: three objects total.
        assert_eq!(it.node_cost(), 3);
    }

    #[test]
    fn relation_names_are_queryable_too() {
        let engine = QueryEngine::new(acyclic_schema()).unwrap();
        let it = engine.connect(&["EMP", "budget"]).unwrap();
        assert!(it.relations.contains(&"EMP".to_string()));
        assert!(it.tree.is_valid_tree(engine.graph().graph()));
    }

    #[test]
    fn unknown_name_and_disconnection_reported() {
        let engine = QueryEngine::new(acyclic_schema()).unwrap();
        assert!(matches!(
            engine.connect(&["name", "salary"]),
            Err(QueryError::UnknownName(_))
        ));
        let disconnected =
            RelationalSchema::from_lists("disc", &["a", "b"], &[("r1", &[0]), ("r2", &[1])]);
        let engine = QueryEngine::new(disconnected).unwrap();
        assert_eq!(engine.connect(&["a", "b"]), Err(QueryError::Disconnected));
    }

    #[test]
    fn single_object_query() {
        let engine = QueryEngine::new(acyclic_schema()).unwrap();
        let it = engine.connect(&["name"]).unwrap();
        assert_eq!(it.node_cost(), 1);
        assert!(it.relations.is_empty());
    }

    fn cyclic_schema() -> RelationalSchema {
        RelationalSchema::from_lists(
            "cyc",
            &["a", "b", "c"],
            &[("r1", &[0, 1]), ("r2", &[1, 2]), ("r3", &[0, 2])],
        )
    }

    #[test]
    fn dp_budget_trip_degrades_query_to_heuristic() {
        // Off-class schema routes to exact; a zero-byte DP admission cap
        // trips it before allocation and the engine falls back to KMB.
        let budget = SolveBudget {
            max_dp_bytes: 0,
            ..SolveBudget::default()
        };
        let engine = QueryEngine::with_budget(cyclic_schema(), budget).unwrap();
        let it = engine.connect(&["a", "b"]).unwrap();
        assert_eq!(it.strategy, Strategy::Heuristic);
        let d = it.degraded.expect("fallback must be recorded");
        assert_eq!(d.from, Stage::ExactDp);
        assert_eq!(d.reason.kind, mcc_graph::BudgetKind::DpTableBytes);
        // The answer is still a valid connection.
        assert!(it.tree.is_valid_tree(engine.graph().graph()));
    }

    #[test]
    fn expired_deadline_surfaces_as_budget_error() {
        let budget = SolveBudget::with_deadline(std::time::Duration::ZERO);
        let engine = QueryEngine::with_budget(acyclic_schema(), budget).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(2));
        match engine.connect(&["name", "budget"]) {
            Err(QueryError::Budget(b)) => {
                assert_eq!(b.kind, mcc_graph::BudgetKind::WallClockMs);
            }
            other => panic!("expected Budget error, got {other:?}"),
        }
        // The engine stays usable: an unbudgeted clone answers.
        let engine = QueryEngine::new(acyclic_schema()).unwrap();
        assert!(engine.connect(&["name", "budget"]).is_ok());
    }

    #[test]
    fn solve_batch_matches_sequential_connects() {
        let engine = QueryEngine::new(acyclic_schema()).unwrap();
        let queries: [&[&str]; 3] = [&["name", "budget"], &["name", "salary"], &["emp_id"]];
        let batch = engine.solve_batch(&queries);
        assert_eq!(batch.len(), queries.len());
        for (got, names) in batch.iter().zip(queries) {
            match (got, engine.connect(names)) {
                (Ok(b), Ok(s)) => assert_eq!(*b, s),
                (Err(b), Err(s)) => assert_eq!(*b, s),
                (b, s) => panic!("batch/sequential disagree: {b:?} vs {s:?}"),
            }
        }
    }

    #[test]
    fn in_class_solves_are_never_degraded() {
        let engine = QueryEngine::new(acyclic_schema()).unwrap();
        let it = engine.connect(&["name", "budget"]).unwrap();
        assert!(it.degraded.is_none());
    }
}
