(** The graph runtime: the counterpart of the paper's external C++ library
    (§3.2), invoked by the executor's graph-select/graph-join operators.

    Given the edge table's source/destination columns it (1) dictionary-
    encodes the vertices into the dense domain [H = {0..|V|-1}], (2) builds
    a CSR, and (3) answers batches of ⟨source, destination⟩ pairs with
    reachability, shortest-path cost and one shortest path per pair.
    Multiple batches may run against the same built graph, concurrently
    too — the amortisation that §4's second experiment measures. A built
    graph keeps no per-query state: each batch takes private workspaces
    from a locked pool and returns its own counters. *)

exception Weight_error of string
(** Raised when a weight expression evaluates to NULL or to a value not
    strictly greater than zero (§2: "Its value must always be strictly
    greater than 0, otherwise a runtime exception is raised"). *)

(** Wall-clock breakdown of {!build} (same [Unix.gettimeofday] source as
    the executor's operator timings, so [EXPLAIN ANALYZE] phase times are
    directly comparable), for the build-dominates ablation. *)
type build_stats = {
  dict_seconds : float;
  encode_seconds : float;
  csr_seconds : float;
  total_seconds : float;
  vertex_count : int;
  edge_count : int;
}

type t

(** [build ~src ~dst] materialises the graph of an edge table whose source
    and destination columns are [src] and [dst] (equal lengths; rows with a
    NULL endpoint are skipped as they denote no edge). *)
val build : src:Storage.Column.t -> dst:Storage.Column.t -> t

(** [build_multi ~src ~dst] — composite vertex keys (§2's multi-attribute
    addressing): each endpoint is a tuple of columns of equal width.
    Pairs are then queried with {!Storage.Value.Tuple} endpoints. *)
val build_multi :
  src:Storage.Column.t list -> dst:Storage.Column.t list -> t

val stats : t -> build_stats
val vertex_count : t -> int
val edge_count : t -> int
val dict : t -> Vertex_dict.t

(** [prepare_bidir t] builds (once) and caches the reverse CSR, enabling
    direction-optimizing traversal for every subsequent batch. Costs one
    O(V + E) pass — worth it exactly when the graph will be traversed more
    than once, so the executor calls it when a graph enters its cache. *)
val prepare_bidir : t -> unit

val has_bidir : t -> bool

(** Edge weights, indexed by *edge-table row* (the runtime re-aligns them
    to CSR slots internally). [Unweighted] is the paper's
    [CHEAPEST SUM(1)]: BFS, cost = hop count. *)
type weights =
  | Unweighted
  | Int_weights of int array
  | Float_weights of float array

(** Traversal engine selection for {!run_pairs}. [`Auto] (the default)
    answers unweighted batches with more than one distinct source through
    the bit-parallel {!Msbfs} engine (63 sources per sweep) and everything
    else per source; [`Scalar] forces one scalar search per source;
    [`Batched] forces MS-BFS for unweighted batches regardless of size.
    Weighted batches always run per-source Dijkstra. Every engine settles
    the same canonical shortest-path tree, so outcomes are identical. *)
type engine = [ `Auto | `Scalar | `Batched ]

type outcome =
  | Unreachable
      (** includes the case where an endpoint is not a vertex of the graph *)
  | Reached of { cost : Storage.Value.t; edge_rows : int array }
      (** [cost] is [Int] (unweighted / int weights) or [Float];
          [edge_rows] is one shortest path as edge-table rows in
          source→destination order — empty when source = destination. *)

(** Counters of one {!run_pairs} batch. [traversal] sums the kernels'
    counters over every worker (peak frontier by max); [sched] is the
    scheduler's view of the batch (use {!Sched.imbalance_pct} for the
    worker imbalance); [pool_hits]/[pool_misses] count the workspaces
    the batch reused from the runtime's pool and allocated fresh. *)
type counters = {
  traversal : Workspace.counters;
  sched : Sched.stats;
  pool_hits : int;
  pool_misses : int;
}

(** [run_pairs t ~weights ~heap ~domains ~pairs] answers every pair and
    returns the outcomes (in pair order) with the batch's {!counters}.
    Pairs sharing a source value share one traversal; identical
    ⟨source, destination⟩ pairs are answered once and fanned back out.
    [heap] picks the Dijkstra queue for integer weights (default
    [Radix], the paper's choice); it is ignored for BFS and float
    weights.

    Every batch runs through the work-stealing scheduler ({!Sched}) over
    a task partition fixed by the batch alone (unweighted: source
    groups sorted by vertex id and cut into contiguous balanced MS-BFS
    waves; weighted: one Dijkstra group per task). [domains] (default 1)
    bounds the worker count — the parallelism the paper's §6 suggests;
    with one worker the batch runs inline on the caller. The CSR is
    shared read-only, every worker takes a private workspace from the
    runtime's pool (under a lock, so concurrent sessions may share one
    runtime), and results land in disjoint slots — so outcomes and
    traversal counters are identical for any [domains]. The worker count
    is clamped to the machine's usable cores (oversubscribing domains
    turns minor GCs into cross-domain synchronisation); [oversubscribe]
    (default false) lifts that clamp for tests that must exercise
    multi-worker stealing on small machines.

    [engine] selects the unweighted traversal engine (see {!engine});
    the default [`Auto] batches multi-source workloads through MS-BFS.

    [check] (default {!Cancel.none}) is forwarded into every kernel so a
    governor can cancel or budget the batch; with several workers the
    same closure is shared by all of them and a raise stops the others
    at their next task boundary, resurfacing after the join.

    Raises {!Weight_error} on invalid weights (checked for every edge that
    participates in the graph, before any traversal). *)
val run_pairs :
  t ->
  weights:weights ->
  ?heap:Dijkstra.heap_kind ->
  ?domains:int ->
  ?check:Cancel.checkpoint ->
  ?engine:engine ->
  ?oversubscribe:bool ->
  pairs:(Storage.Value.t * Storage.Value.t) array ->
  unit ->
  outcome array * counters

(** [reachable t ~pairs] — reachability only: runs BFS and discards paths,
    as the paper's runtime does for bare REACHES predicates. [domains] as
    in {!run_pairs}. *)
val reachable :
  ?check:Cancel.checkpoint ->
  ?domains:int ->
  t ->
  pairs:(Storage.Value.t * Storage.Value.t) array ->
  bool array
