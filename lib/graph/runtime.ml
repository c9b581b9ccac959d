exception Weight_error of string

(* Monotonic-enough wall clock shared with [\timing]/Db (PR 1 moved those
   off [Sys.time]); build stats must use the same source or EXPLAIN
   ANALYZE phase times cannot be compared against operator times. *)
let now = Unix.gettimeofday

module Tr = Telemetry.Trace

type build_stats = {
  dict_seconds : float;
  encode_seconds : float;
  csr_seconds : float;
  total_seconds : float;
  vertex_count : int;
  edge_count : int;
}

(* A built graph holds no per-query mutable state apart from the spare
   workspaces in [pool]: every session of a server shares one cached
   runtime, so each batch takes private workspaces under [pool_lock] and
   returns them after its workers have joined. *)
type t = {
  dict : Vertex_dict.t;
  csr : Csr.t;
  stats : build_stats;
  mutable rev : Csr.t option;  (* reverse CSR, built on demand, kept *)
  pool_lock : Mutex.t;
  mutable pool : Workspace.t list;
}

let build_multi ~src ~dst =
  (match src, dst with
  | [], _ | _, [] -> invalid_arg "Runtime.build_multi: empty key"
  | s :: _, d :: _ ->
    if Storage.Column.length s <> Storage.Column.length d then
      invalid_arg "Runtime.build: src/dst column length mismatch");
  Tr.span "graph_build" @@ fun () ->
  let t0 = now () in
  let dict = Tr.span "dict" (fun () -> Vertex_dict.build_groups [ src; dst ]) in
  let t1 = now () in
  let src_ids, dst_ids =
    Tr.span "encode" (fun () ->
        ( Vertex_dict.encode_columns dict src,
          Vertex_dict.encode_columns dict dst ))
  in
  let t2 = now () in
  let vertex_count = Vertex_dict.cardinality dict in
  let csr =
    Tr.span "csr" (fun () -> Csr.build ~vertex_count ~src:src_ids ~dst:dst_ids)
  in
  let t3 = now () in
  {
    dict;
    csr;
    stats =
      {
        dict_seconds = t1 -. t0;
        encode_seconds = t2 -. t1;
        csr_seconds = t3 -. t2;
        total_seconds = t3 -. t0;
        vertex_count;
        edge_count = Csr.edge_count csr;
      };
    rev = None;
    pool_lock = Mutex.create ();
    pool = [];
  }

let build ~src ~dst = build_multi ~src:[ src ] ~dst:[ dst ]

let stats t = t.stats
let vertex_count t = t.stats.vertex_count
let edge_count t = t.stats.edge_count
let dict t = t.dict

let prepare_bidir t =
  match t.rev with None -> t.rev <- Some (Csr.reverse t.csr) | Some _ -> ()

let has_bidir t = t.rev <> None

type counters = {
  traversal : Workspace.counters;
  sched : Sched.stats;
  pool_hits : int;
  pool_misses : int;
}

(* [acquire_ws t n] — [n] workspaces for one batch and how many came from
   the pool; the rest are allocated outside the lock. *)
let acquire_ws t n =
  let reused =
    Mutex.protect t.pool_lock (fun () ->
        let rec take k acc =
          match t.pool with
          | ws :: rest when k > 0 ->
            t.pool <- rest;
            take (k - 1) (ws :: acc)
          | _ -> acc
        in
        take n [])
  in
  let hits = List.length reused in
  let fresh =
    List.init (n - hits) (fun _ -> Workspace.create t.stats.vertex_count)
  in
  (Array.of_list (reused @ fresh), hits)

(* Workspaces go back with their counters reset, so a pooled workspace
   always starts a batch clean. *)
let release_ws t wss =
  Array.iter Workspace.reset_counters wss;
  Mutex.protect t.pool_lock (fun () ->
      t.pool <- Array.fold_left (fun pool ws -> ws :: pool) t.pool wss)

type weights =
  | Unweighted
  | Int_weights of int array
  | Float_weights of float array

type engine = [ `Auto | `Scalar | `Batched ]

type outcome =
  | Unreachable
  | Reached of { cost : Storage.Value.t; edge_rows : int array }

(* Re-align per-row weights to CSR slots and enforce strict positivity over
   every edge that made it into the graph. *)
let slot_weights_int t per_row =
  let rows = t.csr.Csr.edge_rows in
  Array.init (Ivec.length rows) (fun slot ->
      let w = per_row.(Ivec.get rows slot) in
      if w <= 0 then
        raise
          (Weight_error
             (Printf.sprintf
                "edge weight must be > 0, got %d at edge-table row %d" w
                (Ivec.get rows slot)));
      w)

let slot_weights_float t per_row =
  let rows = t.csr.Csr.edge_rows in
  Array.init (Ivec.length rows) (fun slot ->
      let w = per_row.(Ivec.get rows slot) in
      if not (w > 0.) then
        raise
          (Weight_error
             (Printf.sprintf
                "edge weight must be > 0, got %g at edge-table row %d" w
                (Ivec.get rows slot)));
      w)

(* Group pair indices by encoded source id so each distinct source runs a
   single traversal. Pairs with a non-vertex endpoint resolve immediately
   to Unreachable (the semi-join against V of §3.1). *)
let encode_pairs t pairs =
  Array.map
    (fun (s, d) ->
      match Vertex_dict.encode t.dict s, Vertex_dict.encode t.dict d with
      | Some si, Some di -> Some (si, di)
      | _, _ -> None)
    pairs

(* Duplicate encoded pairs extract once and fan out afterwards: alias.(i)
   is the index of the first pair with the same (source, destination)
   encoding, or -1 when pair i is itself the canonical occurrence. *)
let dedup_pairs encoded =
  let canon = Hashtbl.create 64 in
  let alias = Array.make (Array.length encoded) (-1) in
  Array.iteri
    (fun idx enc ->
      match enc with
      | None -> ()
      | Some key -> (
        match Hashtbl.find_opt canon key with
        | Some first -> alias.(idx) <- first
        | None -> Hashtbl.add canon key idx))
    encoded;
  alias

let group_by_source encoded alias =
  let groups = Hashtbl.create 64 in
  Array.iteri
    (fun idx enc ->
      match enc with
      | Some (si, di) when alias.(idx) < 0 ->
        let entries =
          match Hashtbl.find_opt groups si with Some l -> l | None -> []
        in
        Hashtbl.replace groups si ((idx, di) :: entries)
      | _ -> ())
    encoded;
  groups

(* Run one source group (search + per-pair extraction) on a given
   workspace, writing its outcomes into disjoint slots of [out]. *)
let run_scalar_group t ~slot_w ~heap ~check ~rev ~out ws (source, entries) =
  (* One span per search; closed on the cancellation unwind by
     [Trace.span]'s protect (the enclosing batch/domain span would catch
     a skipped end anyway, see [Trace.end_span]). *)
  let search_name = match slot_w with `None -> "bfs" | _ -> "dijkstra" in
  Tr.span search_name (fun () ->
      match slot_w with
      | `None ->
        Bfs.run ~check ?rev ws t.csr ~source
          ~targets:(Array.of_list (List.map snd entries))
      | `Int w ->
        Dijkstra.run_int ~check ws t.csr ~weights:w ~source
          ~targets:(Array.of_list (List.map snd entries))
          ~heap
      | `Float w ->
        Dijkstra.run_float ~check ws t.csr ~weights:w ~source
          ~targets:(Array.of_list (List.map snd entries)));
  List.iter
    (fun (idx, dst) ->
      if Workspace.visited ws dst then begin
        let cost =
          match slot_w with
          | `None | `Int _ -> Storage.Value.Int ws.Workspace.dist_int.(dst)
          | `Float _ -> Storage.Value.Float ws.Workspace.dist_float.(dst)
        in
        let edge_rows = Path_tree.edge_rows ws t.csr ~source ~dst in
        out.(idx) <- Reached { cost; edge_rows }
      end)
    entries

(* One MS-BFS wave over <= Msbfs.max_lanes source groups: lane i is the
   search rooted at groups.(i). Outcomes are extracted before the next
   wave reuses the batch scratch. *)
let run_wave t ~check ~rev ~out ws groups =
  let sp =
    if Tr.enabled () then
      Tr.begin_span ~attrs:[ ("lanes", string_of_int (Array.length groups)) ]
        "wave"
    else -1
  in
  Fun.protect ~finally:(fun () -> Tr.end_span sp) @@ fun () ->
  let sources = Array.map fst groups in
  let targets =
    let acc = ref [] in
    Array.iteri
      (fun lane (_, entries) ->
        List.iter (fun (_, dst) -> acc := (lane, dst) :: !acc) entries)
      groups;
    Array.of_list !acc
  in
  Msbfs.run ~check ?rev ws t.csr ~sources ~targets;
  Array.iteri
    (fun lane (source, entries) ->
      List.iter
        (fun (idx, dst) ->
          match Msbfs.dist ws ~lane ~source ~dst with
          | None -> ()
          | Some hops ->
            let edge_rows = Msbfs.edge_rows ws t.csr ~lane ~source ~dst in
            out.(idx) <- Reached { cost = Storage.Value.Int hops; edge_rows })
        entries)
    groups

(* Every batch runs one fixed task partition under the work-stealing
   scheduler (Sched). The partition depends on the batch alone, never on
   the worker count or steal order. Batched groups are sorted by source
   id and cut into ⌈G/63⌉ contiguous waves of near-equal lane counts —
   partition-aware: the lanes of one wave root in one contiguous
   vertex-id range of the CSR, and balanced widths avoid the runt wave a
   greedy 63-at-a-time cut produces. Scalar groups run one per task,
   largest first. A task is a range over that fixed sequence: a worker
   executes one wave/group and pushes the remainder back on its deque,
   which is exactly the granularity thieves steal at. With one worker
   (domains = 1, or one task) the scheduler runs inline and spawns no
   domain.

   Because the partition is fixed, every traversal counter depends only
   on the batch — identical for any [domains] — and the per-worker
   counters are summed after the join, in worker-index order. The
   governor checkpoint is shared across workers (its budget counters are
   monotone and advisory); a raise in any kernel stops the other workers
   at their next task boundary and resurfaces after the join. *)
let run_pairs t ~weights ?(heap = Dijkstra.Radix) ?(domains = 1)
    ?(check = Cancel.none) ?(engine = `Auto) ?(oversubscribe = false) ~pairs
    () =
  Tr.span "traversal_batch" @@ fun () ->
  let slot_w =
    match weights with
    | Unweighted -> `None
    | Int_weights per_row -> `Int (slot_weights_int t per_row)
    | Float_weights per_row -> `Float (slot_weights_float t per_row)
  in
  let encoded = encode_pairs t pairs in
  let alias = dedup_pairs encoded in
  let by_source = group_by_source encoded alias in
  let out = Array.make (Array.length pairs) Unreachable in
  (* The batched engine answers unweighted multi-source batches 63 lanes
     per sweep; weighted traversal stays on per-source Dijkstra. *)
  let batched =
    match slot_w, (engine : engine) with
    | `None, `Batched -> true
    | `None, `Auto -> Hashtbl.length by_source > 1
    | _ -> false
  in
  (* Batched groups ascend by source id (the wave cut above); scalar
     groups go largest first by pending pair count, source id breaking
     ties. Either order is independent of hash-table iteration order. *)
  let order =
    if batched then fun (s1, _) (s2, _) -> compare (s1 : int) s2
    else fun (s1, e1) (s2, e2) ->
      let c = compare (List.length e2) (List.length e1) in
      if c <> 0 then c else compare s1 s2
  in
  let groups =
    Hashtbl.fold (fun s e acc -> (s, e) :: acc) by_source []
    |> List.sort order |> Array.of_list
  in
  let g = Array.length groups in
  let ntasks =
    if batched then (g + Msbfs.max_lanes - 1) / Msbfs.max_lanes else g
  in
  let rev = t.rev in
  let workers = Sched.plan ~oversubscribe ~domains ntasks in
  let wss, pool_hits = acquire_ws t workers in
  let exec ~worker (lo, hi) =
    let ws = wss.(worker) in
    (if batched then begin
       let glo = lo * g / ntasks and ghi = (lo + 1) * g / ntasks in
       run_wave t ~check ~rev ~out ws (Array.sub groups glo (ghi - glo))
     end
     else run_scalar_group t ~slot_w ~heap ~check ~rev ~out ws groups.(lo));
    if lo + 1 < hi then Some (lo + 1, hi) else None
  in
  let tasks =
    Array.init workers (fun k ->
        let lo = k * ntasks / workers and hi = (k + 1) * ntasks / workers in
        if lo >= hi then [] else [ (lo, hi) ])
  in
  (* Each worker records onto its own track; parent its root span to the
     coordinator's batch span so the timeline links up. *)
  let batch_span = Tr.current_span () in
  let around k body =
    let sp =
      if Tr.enabled () then
        Tr.begin_span ~parent:batch_span
          ~attrs:[ ("worker", string_of_int k) ]
          "domain"
      else -1
    in
    Fun.protect ~finally:(fun () -> Tr.end_span sp) body
  in
  let sched, traversal =
    Fun.protect
      ~finally:(fun () -> release_ws t wss)
      (fun () ->
        let sched = Sched.run ~around ~workers ~tasks ~exec () in
        (sched, Workspace.sum_counters wss))
  in
  (* Fan the canonical outcomes back out to the deduplicated pairs. *)
  Array.iteri (fun idx a -> if a >= 0 then out.(idx) <- out.(a)) alias;
  (out, { traversal; sched; pool_hits; pool_misses = workers - pool_hits })

let reachable ?(check = Cancel.none) ?domains t ~pairs =
  let outcomes, _ = run_pairs t ~weights:Unweighted ~check ?domains ~pairs () in
  Array.map (function Unreachable -> false | Reached _ -> true) outcomes
