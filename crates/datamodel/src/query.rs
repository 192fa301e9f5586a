//! The logically independent query interface of the introduction: the
//! user names objects; the engine finds a minimal connection.

use crate::relational::{RelationalSchema, RelationalSchemaError};
use mcc_chordality::BipartiteClassification;
use mcc_graph::{BipartiteGraph, BudgetExceeded, NodeSet, Side, SolveBudget};
use mcc_steiner::solver::SolveTrace;
use mcc_steiner::{
    Degraded, SchemaArtifacts, Solution, SolveError, Solver, SolverConfig, SteinerTree,
};
use std::fmt;
use std::sync::Arc;

/// Which solver produced an interpretation — the provenance the paper's
/// complexity map dictates. The same type the core [`Solver`] reports.
pub use mcc_steiner::SteinerStrategy as Strategy;

/// One interpretation of a query: a connection over the named objects.
///
/// The names of the objects it uses are read, on demand, from the
/// schema's graph: [`Interpretation::relations`] and
/// [`Interpretation::attributes`] borrow the labels of the tree's nodes
/// from the artifacts the answering [`Solver`] holds (the interpretation
/// keeps one more reference to them), so answering a query copies no
/// name.
#[derive(Clone)]
pub struct Interpretation {
    /// The connecting tree.
    pub tree: SteinerTree,
    /// How it was computed.
    pub strategy: Strategy,
    /// Set when the intended route tripped its budget and the engine fell
    /// back to the heuristic — the connection is valid but possibly
    /// non-minimal.
    pub degraded: Option<Degraded>,
    /// Where the solve spent its time, per tracing stage (see
    /// [`Solution::trace`]).
    pub trace: SolveTrace,
    /// The schema's artifacts, for the names of the tree's nodes.
    artifacts: Arc<SchemaArtifacts>,
}

impl Interpretation {
    /// Total number of objects in the connection.
    pub fn node_cost(&self) -> usize {
        self.tree.node_cost()
    }

    /// Names of the relations used (the `V2` nodes of the tree), in node
    /// id order.
    pub fn relations(&self) -> impl Iterator<Item = &str> + '_ {
        self.names_on(Side::V2)
    }

    /// Names of the attributes used (the `V1` nodes of the tree), in node
    /// id order.
    pub fn attributes(&self) -> impl Iterator<Item = &str> + '_ {
        self.names_on(Side::V1)
    }

    fn names_on(&self, side: Side) -> impl Iterator<Item = &str> + '_ {
        let bg = self.artifacts.bipartite();
        self.tree
            .nodes
            .iter()
            .filter(move |&v| bg.side(v) == side)
            .map(|v| bg.graph().label(v))
    }
}

/// Prints the names the interpretation uses, not the artifacts behind
/// them.
impl fmt::Debug for Interpretation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Interpretation")
            .field("tree", &self.tree)
            .field("strategy", &self.strategy)
            .field("relations", &self.relations().collect::<Vec<_>>())
            .field("attributes", &self.attributes().collect::<Vec<_>>())
            .field("degraded", &self.degraded)
            .field("trace", &self.trace)
            .finish()
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
    /// A solver invariant broke (or a solver panicked); the [`Solver`]
    /// caught it at its boundary instead of unwinding into the caller.
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

/// A prepared query engine over a relational schema: a thin front over
/// one [`Solver`], which owns the schema's artifacts, its workspace, the
/// routing ladder and the panic boundary. The engine adds name
/// resolution and picks which problem to solve (see
/// [`QueryEngine::connect_terminals`]).
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
/// assert_eq!(it.relations().count(), 2); // WORKS_IN ⋈ FUNDING over dept
/// ```
#[derive(Debug, Clone)]
pub struct QueryEngine {
    schema: RelationalSchema,
    solver: Solver,
}

impl QueryEngine {
    /// Builds the engine: converts the schema and prepares its
    /// [`Solver`], which classifies it once. Solves run under the default
    /// [`SolveBudget`] (no deadline, default memory admission); see
    /// [`QueryEngine::with_budget`].
    pub fn new(schema: RelationalSchema) -> Result<Self, QueryError> {
        Self::with_budget(schema, SolveBudget::default())
    }

    /// As [`QueryEngine::new`], with every solve governed by `budget`
    /// (and the rest of [`SolverConfig::default`]). When the exact route
    /// trips the budget, the solve degrades to the heuristic (recorded
    /// on [`Interpretation::degraded`]); otherwise a trip is reported as
    /// [`QueryError::Budget`].
    pub fn with_budget(schema: RelationalSchema, budget: SolveBudget) -> Result<Self, QueryError> {
        let bipartite = schema.to_bipartite().map_err(QueryError::Schema)?;
        let config = SolverConfig {
            budget,
            ..SolverConfig::default()
        };
        Ok(QueryEngine {
            schema,
            solver: Solver::with_config(bipartite, config),
        })
    }

    /// The budget governing every solve of this engine.
    pub fn budget(&self) -> &SolveBudget {
        &self.solver.config().budget
    }

    /// The underlying schema.
    pub fn schema(&self) -> &RelationalSchema {
        &self.schema
    }

    /// The schema's bipartite graph (attributes on `V1`, relations on
    /// `V2`).
    pub fn graph(&self) -> &BipartiteGraph {
        self.solver.graph()
    }

    /// The classification computed once at construction; its `six_two`
    /// and α-acyclicity bits pick every query's route.
    pub fn classification(&self) -> BipartiteClassification {
        *self.solver.classification()
    }

    /// Resolves query names to node ids.
    pub fn resolve(&self, names: &[&str]) -> Result<NodeSet, QueryError> {
        self.graph()
            .graph()
            .nodes_by_labels(names)
            .map_err(|name| QueryError::UnknownName(name.to_string()))
    }

    /// Answers a query: the most immediate interpretation — the minimal
    /// connection among the named objects, computed by the strongest
    /// algorithm the schema's class licenses.
    pub fn connect(&self, names: &[&str]) -> Result<Interpretation, QueryError> {
        let terminals = self.resolve(names)?;
        self.connect_terminals(&terminals)
    }

    /// As [`QueryEngine::connect`], from already-resolved terminals.
    ///
    /// On (6,2)-chordal schemas this is the [`Solver`]'s Steiner solve
    /// (Algorithm 2). When only `H¹` is α-acyclic it is the pseudo-Steiner
    /// solve minimizing relations (Algorithm 1 on the cached Lemma 1
    /// route). Everywhere else it is the Steiner solve's off-class
    /// ladder: exact DP up to [`SolverConfig::max_exact_terminals`]
    /// terminals under the budget's DP-byte admission, degrading to KMB
    /// on a budget trip, and KMB for larger queries.
    ///
    /// Each call starts a fresh budget clock, so a wall-clock deadline is
    /// per query, not per engine lifetime. A panic anywhere in the solve
    /// is caught by the solver and surfaces as [`QueryError::Internal`].
    pub fn connect_terminals(&self, terminals: &NodeSet) -> Result<Interpretation, QueryError> {
        let class = self.solver.classification();
        let solution = if !class.six_two && class.h1_alpha_acyclic() {
            self.solver.solve_pseudo(terminals, Side::V2)
        } else {
            self.solver.solve_steiner(terminals)
        };
        solution.map(|s| self.interpret(s)).map_err(solve_error)
    }

    fn interpret(&self, solution: Solution) -> Interpretation {
        Interpretation {
            tree: solution.tree,
            strategy: solution.strategy,
            degraded: solution.degraded,
            trace: solution.trace,
            artifacts: Arc::clone(self.solver.artifacts()),
        }
    }
}

/// Maps the solver taxonomy onto query errors.
fn solve_error(e: SolveError) -> QueryError {
    match e {
        SolveError::Disconnected => QueryError::Disconnected,
        SolveError::Budget(b) => QueryError::Budget(b),
        SolveError::Internal { stage, detail } => {
            QueryError::Internal(format!("{stage}: {detail}"))
        }
    }
}

impl PartialEq for Interpretation {
    /// Interpretations compare by tree and strategy (the names are
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
        assert!(it.relations().eq(["EMP", "DEPT"]));
        assert!(it.attributes().any(|a| a == "dept")); // the join attribute
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
        assert!(it.relations().any(|r| r == "EMP"));
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
        assert_eq!(it.relations().count(), 0);
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
        assert_eq!(d.from, mcc_graph::Stage::ExactDp);
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
    fn in_class_solves_are_never_degraded() {
        let engine = QueryEngine::new(acyclic_schema()).unwrap();
        let it = engine.connect(&["name", "budget"]).unwrap();
        assert!(it.degraded.is_none());
    }
}
