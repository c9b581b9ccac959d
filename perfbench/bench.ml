(* End-to-end benchmark of the sqlgraph server.

   One closed-loop workload per run, driven through the real server
   ([Sqlgraph_server.Server] over a WAL-backed [Db], fsync on, group
   commit, listening on a Unix socket) by client sessions with no think
   time.  The clients run in a child process (this executable with
   [--client]), so they do not share the server's OCaml runtime lock.
   Every answer is checked; failures are counted, never fatal.

     python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

   Workloads (why each exists):
   - paths-warm: SNB SF1 friends graph, graph index warm before timing,
     1 session.  Read-only and traversal-bound; every query hits the
     index.  Classes: point (single-pair CHEAPEST SUM(1)), batch (64-row
     pairs table), weighted (Q14-variant CHEAPEST SUM over
     CAST(weight*100) flattened with UNNEST).
   - kv-durable: kv(k, v) preloaded with 100k rows, 2 sessions.
     Write-heavy and durable, no graph layer: writer lock, WAL append +
     fsync, group commit, snapshot publish of a large table.  Classes:
     insert, txn (BEGIN, 3 INSERTs, COMMIT), delete (by key, existing
     keys).
   - graph-churn: SNB SF1 at ratio 0.2, graph index enabled, 1 session.
     Path reads beside edge DML on the same table: every write
     invalidates the index, so the next path query rebuilds it.
     Classes: point, batch, write (edge INSERT, then DELETE of the
     previous write's edge).
   - paths-shared: paths-warm from 2 sessions that share one cached
     graph.  Not a measured workload: concurrent traversals over one
     cached graph share its single traversal workspace, so this one
     fails with ERR and wrong answers (correct: false) until that is
     fixed.  The path workloads above use 1 session for that reason.

   End-to-end metrics are keyed by the class's role in its workload's
   mix so every workload reports the same names: [main] is the dominant
   class, [bulk] the multi-unit one, [heavy] the rare expensive one.

   [--trace 1] adds a second, traced window: a bench-side replica of a
   server session calls each layer's public function in the order a
   session does (refresh, parse, fingerprint, bind, rewrite, run,
   encode; writer lock, DML, publish, durable wait) and times every
   call.  Its results are checked like the wire answers. *)

module Db = Sqlgraph.Db
module Wal = Sqlgraph.Wal
module J = Sqlgraph.Metrics
module Governor = Sqlgraph.Governor
module Server = Sqlgraph_server.Server
module Scheduler = Sqlgraph_server.Scheduler
module Client = Sqlgraph_server.Client
module Protocol = Sqlgraph_server.Protocol
module Interp = Executor.Interp
module Rng = Datagen.Splitmix
module Stats = Perfbench.Stats
module Check = Perfbench.Check

(* set-up is repeated and its median reported, in one round before the
   timed window and one after it, so that a burst of host load does not
   set the median alone.  A round makes at least this many set-ups and
   goes on until this long has been spent on it *)
let setup_min_reps = 3
let setup_min_seconds = 1.5
let setup_max_reps = 15
let slices = 5
let kv_preload = 100_000
let snb_seed = 1
let pairs_per_session = 64

(* Every statement runs under a wall-clock budget far above any healthy
   statement here (the slowest take ~0.1 s), so a runaway statement
   becomes a counted ERR.  One that spins without reaching a governor
   checkpoint is left behind by [closed_loop] instead. *)
let statement_budget = Governor.budget ~timeout_ms:2_000. ()
let request_timeout_ms = 5_000
let now = Unix.gettimeofday
let ms s = s *. 1000.
let sprintf = Printf.sprintf

(* ------------------------------------------------------------------ *)
(* Workloads *)

type mix = Paths_warm | Kv_durable | Graph_churn

(* a workload is a mix and its number of client sessions *)
let workload_of_name = function
  | "paths-warm" -> Some (Paths_warm, 1)
  | "kv-durable" -> Some (Kv_durable, 2)
  | "graph-churn" -> Some (Graph_churn, 1)
  | "paths-shared" -> Some (Paths_warm, 2)
  | _ -> None

let slot_names = [| "main"; "bulk"; "heavy" |]

(* class behind each slot, and how many of each slot every block of the
   mix holds (blocks are shuffled, so shares are exact per block) *)
let classes = function
  | Paths_warm -> [| "point"; "batch"; "weighted" |]
  | Kv_durable -> [| "insert"; "txn"; "delete" |]
  | Graph_churn -> [| "point"; "batch"; "write" |]

let block = function
  | Paths_warm -> [| 17; 2; 1 |]
  | Kv_durable -> [| 7; 2; 1 |]
  | Graph_churn -> [| 18; 1; 1 |]

type kind =
  | Point of int * int
  | Weighted of int * int
  | Batch of int (* the stream's pairs table *)
  | Insert of int
  | Delete of int
  | Txn of int list
  | Edge_move of { add : int * int; drop : int * int }

type req = { slot : int; kind : kind; stmts : string list }

let point_sql s d =
  sprintf "SELECT CHEAPEST SUM(1) WHERE %d REACHES %d OVER friends EDGE (src, dst)" s d

let weighted_sql s d =
  sprintf
    "SELECT T.cost, R.ordinality, R.src, R.dst FROM (SELECT CHEAPEST SUM(e: \
     CAST(weight*100 AS INTEGER)) AS (cost, path) WHERE %d REACHES %d OVER \
     friends e EDGE (src, dst)) T, UNNEST(T.path) WITH ORDINALITY AS R"
    s d

let pairs_table i = sprintf "pairs_%d" i

let batch_sql i =
  sprintf
    "SELECT s, d, CHEAPEST SUM(1) AS c FROM %s WHERE s REACHES d OVER friends \
     EDGE (src, dst)"
    (pairs_table i)

let insert_sql k = sprintf "INSERT INTO kv VALUES (%d, %d)" k (k mod 1000)
let delete_sql k = sprintf "DELETE FROM kv WHERE k = %d" k

let edge_insert_sql a b =
  sprintf "INSERT INTO friends (src, dst, weight) VALUES (%d, %d, 0.5)" a b

let edge_delete_sql a b = sprintf "DELETE FROM friends WHERE src = %d AND dst = %d" a b

let stmts_of = function
  | Point (s, d) -> [ point_sql s d ]
  | Weighted (s, d) -> [ weighted_sql s d ]
  | Batch i -> [ batch_sql i ]
  | Insert k -> [ insert_sql k ]
  | Delete k -> [ delete_sql k ]
  | Txn ks -> ("BEGIN" :: List.map insert_sql ks) @ [ "COMMIT" ]
  | Edge_move { add = a, b; drop = c, d } -> [ edge_insert_sql a b; edge_delete_sql c d ]

(* Inputs, all a function of the seed and the fixed [snb_seed].  Streams
   0..sessions-1 drive the untraced window, the next [sessions] the
   traced one; each stream has its own pairs table, fresh-key range and
   delete-key residue, so the two windows never collide on data. *)
let streams ~sessions = 2 * sessions

type data =
  | Graph of {
      snb : Datagen.Snb.t;
      ids : int array;
      edges : (int * int) array; (* the base edge set: the server mutates its table *)
      pairs : (int * int) array array;
    }
  | Kv of Storage.Table.t (* the preloaded kv(k, v) rows *)

let kv_table () =
  let schema =
    Storage.Schema.of_pairs [ ("k", Storage.Dtype.TInt); ("v", Storage.Dtype.TInt) ]
  in
  let t = Storage.Table.create schema in
  for k = 0 to kv_preload - 1 do
    Storage.Table.append_row t [| Storage.Value.Int k; Storage.Value.Int (k mod 1000) |]
  done;
  t

let make_data mix ~seed ~sessions =
  match mix with
  | Kv_durable -> Kv (kv_table ())
  | Paths_warm | Graph_churn ->
    (* one fixed SNB graph, as the paper's runs use one DATAGEN output;
       the run's seed draws the query parameters *)
    let snb =
      match mix with
      | Paths_warm -> Datagen.Snb.generate ~scale_factor:1 ~seed:snb_seed ()
      | _ -> Datagen.Snb.generate ~scale_factor:1 ~ratio:0.2 ~seed:snb_seed ()
    in
    let ids = Datagen.Snb.person_ids snb in
    let pairs =
      Array.init (streams ~sessions) (fun i ->
          Datagen.Workload.random_pairs ~seed:((seed * 7919) + 101 + i) ~ids pairs_per_session)
    in
    let friends = snb.Datagen.Snb.friends in
    let endpoint c row =
      match Storage.Column.get (Storage.Table.column friends c) row with
      | Storage.Value.Int v -> v
      | _ -> invalid_arg "friends endpoint"
    in
    let edges = Array.init (Storage.Table.nrows friends) (fun r -> (endpoint 0 r, endpoint 1 r)) in
    Graph { snb; ids; edges; pairs }

(* The person ids the request streams draw endpoints from. *)
let person_ids = function Graph { ids; _ } -> ids | Kv _ -> [||]

(* The deterministic request stream of one session. *)
let generator mix ids ~seed ~sessions ~stream =
  let rng = Rng.create ~seed:((seed * 1_000_003) + (stream * 7_919) + 17) in
  let pending = Queue.create () in
  let refill () =
    let slots =
      Array.concat (Array.to_list (Array.mapi (fun s n -> Array.make n s) (block mix)))
    in
    for i = Array.length slots - 1 downto 1 do
      let j = Rng.int rng ~bound:(i + 1) in
      let x = slots.(i) in
      slots.(i) <- slots.(j);
      slots.(j) <- x
    done;
    Array.iter (fun s -> Queue.push s pending) slots
  in
  let pair () =
    let n = Array.length ids in
    let s = ids.(Rng.int rng ~bound:n) in
    let rec dst () =
      let d = ids.(Rng.int rng ~bound:n) in
      if d = s then dst () else d
    in
    (s, dst ())
  in
  let fresh = ref 0 in
  let fresh_key () =
    incr fresh;
    (1_000_000 * (stream + 1)) + !fresh
  in
  let deleted = Hashtbl.create 64 in
  let rec delete_key () =
    let n = streams ~sessions in
    let k = (n * Rng.int rng ~bound:(kv_preload / n)) + stream in
    if Hashtbl.mem deleted k then delete_key ()
    else begin
      Hashtbl.add deleted k ();
      k
    end
  in
  let last_edge = ref None in
  fun () ->
    if Queue.is_empty pending then refill ();
    let slot = Queue.pop pending in
    let kind =
      match (mix, slot) with
      | (Paths_warm | Graph_churn), 0 ->
        let s, d = pair () in
        Point (s, d)
      | (Paths_warm | Graph_churn), 1 -> Batch stream
      | Paths_warm, _ ->
        let s, d = pair () in
        Weighted (s, d)
      | Graph_churn, _ ->
        (* Insert a random edge and delete the one the previous write
           inserted (at first a random pair, most likely absent), as one
           request of two autocommits.  A lone DELETE scans the table and
           costs several INSERTs, so the median of a half-and-half mix of
           the two would fall in the gap between them and swing from run
           to run. *)
        let add = pair () in
        let drop = match !last_edge with Some e -> e | None -> pair () in
        last_edge := Some add;
        Edge_move { add; drop }
      | Kv_durable, 0 -> Insert (fresh_key ())
      | Kv_durable, 1 ->
        let a = fresh_key () in
        let b = fresh_key () in
        Txn [ a; b; fresh_key () ]
      | Kv_durable, _ -> Delete (delete_key ())
    in
    { slot; kind; stmts = stmts_of kind }

(* ------------------------------------------------------------------ *)
(* Server set-up *)

type server = {
  dir : string;
  store : Wal.t;
  db : Db.t;
  srv : Server.t;
}

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let fail fmt = Printf.ksprintf failwith fmt

let or_fail what = function
  | Ok x -> x
  | Error e -> fail "%s: %s" what (Sqlgraph.Error.to_string e)

(* Load the tables, make them durable, build and warm the graph index
   and start the server listening: what [setup_s] times. *)
let setup data ~dir ~sock =
  rm_rf dir;
  let store, db, _ = or_fail "open data dir" (Wal.open_dir ~fsync:true dir) in
  (match data with
  | Graph { snb; pairs; _ } ->
    Db.load_table db ~name:"persons" snb.Datagen.Snb.persons;
    Db.load_table db ~name:"friends" snb.Datagen.Snb.friends;
    Array.iteri
      (fun i p -> Db.load_table db ~name:(pairs_table i) (Datagen.Workload.pairs_table p))
      pairs
  | Kv preload -> Db.load_table db ~name:"kv" preload);
  (* load_table bypasses the log: a checkpoint makes the base durable *)
  or_fail "checkpoint" (Wal.checkpoint store db);
  (match data with
  | Graph _ ->
    or_fail "graph index" (Db.create_graph_index db ~table:"friends" ~src:"src" ~dst:"dst");
    if Db.warm_graph_indexes db <> 1 then failwith "graph index did not warm"
  | Kv _ -> ());
  let config = { Scheduler.default_config with budget = statement_budget } in
  let srv = Server.create ~config ~db ~store:(Some store) () in
  Server.listen_unix srv sock;
  { dir; store; db; srv }

(* Wait until the server has released every session, then stop it
   accepting. *)
let disconnect s =
  let sched = Server.scheduler s.srv in
  let deadline = now () +. 10. in
  while Scheduler.active_sessions sched > 0 && now () < deadline do
    Thread.delay 0.001
  done;
  Scheduler.begin_stop sched

let teardown s =
  disconnect s;
  Wal.close s.store;
  rm_rf s.dir

(* ------------------------------------------------------------------ *)
(* Timed windows *)

(* One completed request.  [lines] is the response of its last
   statement (COMMIT for a transaction, or the first that failed). *)
type record = {
  req : req;
  t0 : float;
  t1 : float;
  lines : string list;
  stmts_done : int;
  layers : layers option; (* traced window only *)
}

and layers = {
  mutable refresh : float;
  mutable parse : float;
  mutable fingerprint : float;
  mutable bind : float;
  mutable rewrite : float;
  mutable run : float;
  mutable encode : float;
  mutable wait : float;
  mutable dml : float;
  mutable publish : float;
  mutable durable : float;
  mutable build : float;
  mutable traverse : float;
  mutable build_dict : float;
  mutable build_encode : float;
  mutable build_csr : float;
  mutable built : int;
  mutable settled : int;
  mutable edges : int;
  mutable waves : int;
}

let new_layers () =
  {
    refresh = 0.;
    parse = 0.;
    fingerprint = 0.;
    bind = 0.;
    rewrite = 0.;
    run = 0.;
    encode = 0.;
    wait = 0.;
    dml = 0.;
    publish = 0.;
    durable = 0.;
    build = 0.;
    traverse = 0.;
    build_dict = 0.;
    build_encode = 0.;
    build_csr = 0.;
    built = 0;
    settled = 0;
    edges = 0;
    waves = 0;
  }

(* the layers whose times tile a statement (build and traverse are
   inside [run]) *)
let layer_sum l =
  l.refresh +. l.parse +. l.fingerprint +. l.bind +. l.rewrite +. l.run +. l.encode
  +. l.wait +. l.dml +. l.publish +. l.durable

(* How long a session may still be finishing its last request after the
   deadline before it is reported as hung: above the statement budget. *)
let grace_s = 5.

let is_closed r = String.starts_with ~prefix:"ERR closed" (Client.terminal r.lines)

(* Run [exec] in a closed loop on every session until the deadline.  A
   session whose last request has not returned [grace_s] after it is
   left behind, and that request is recorded as failed. *)
let closed_loop ~seconds ~gens ~exec =
  let start = now () in
  let deadline = start +. seconds in
  let n = Array.length gens in
  let mu = Mutex.create () in
  let locked f =
    Mutex.lock mu;
    Fun.protect ~finally:(fun () -> Mutex.unlock mu) f
  in
  let out = Array.make n [] and inflight = Array.make n None and finished = Array.make n false in
  let worker i =
    let stop = ref false in
    while (not !stop) && now () < deadline do
      let req = gens.(i) () in
      locked (fun () -> inflight.(i) <- Some (req, now ()));
      let r = exec i req in
      locked (fun () ->
          out.(i) <- r :: out.(i);
          inflight.(i) <- None);
      stop := is_closed r
    done;
    locked (fun () -> finished.(i) <- true)
  in
  let threads = Array.init n (fun i -> Thread.create worker i) in
  let all_finished () = locked (fun () -> Array.for_all Fun.id finished) in
  while (not (all_finished ())) && now () < deadline +. grace_s do
    Thread.delay 0.01
  done;
  let records =
    locked (fun () ->
        List.concat
          (List.init n (fun i ->
               let hung =
                 match inflight.(i) with
                 | Some (req, t0) when not finished.(i) ->
                   [ { req; t0; t1 = now (); lines = [ "ERR hung: no answer" ]; stmts_done = 0; layers = None } ]
                 | _ -> []
               in
               List.rev_append out.(i) hung)))
  in
  Array.iteri (fun i th -> if finished.(i) then Thread.join th) threads;
  (start, Array.of_list records)

(* Wire execution: one request per statement, waiting for each answer.
   A failed statement inside a transaction is followed by an untimed
   ROLLBACK so the session releases the writer lock. *)
let wire_exec client req =
  let t0 = now () in
  let rec go n = function
    | [] -> ([], n)
    | s :: rest ->
      let lines =
        try Client.request ~timeout_ms:request_timeout_ms client s
        with Client.Closed m -> [ "ERR closed " ^ m ]
      in
      if Client.is_ok lines && rest <> [] then go (n + 1) rest else (lines, n + 1)
  in
  let lines, n = go 0 req.stmts in
  let t1 = now () in
  (match req.kind with
  | Txn _ when not (Client.is_ok lines) -> (
    try ignore (Client.request ~timeout_ms:request_timeout_ms client "ROLLBACK") with _ -> ())
  | _ -> ());
  { req; t0; t1; lines; stmts_done = n; layers = None }

(* ---- the traced replica of a server session ---- *)

type replica = {
  sched : Scheduler.t;
  rdb : Db.t; (* private snapshot Db, as a session has *)
  seen : (string, int) Hashtbl.t;
  mutable loaded : int;
}

let replica sched =
  let shared = Scheduler.db sched in
  { sched; rdb = Db.create ~indices:(Db.indices shared) (); seen = Hashtbl.create 16; loaded = -1 }

let timed acc f =
  let t0 = now () in
  let r = f () in
  acc (now () -. t0);
  r

(* guard a layer call the way Db.exec guards a statement *)
let guarded f = match Db.protect f with Ok x -> Ok x | Error e -> Error (Protocol.err e)

let replica_read r l sql =
  timed (fun d -> l.refresh <- l.refresh +. d) (fun () ->
      r.loaded <-
        Scheduler.refresh_snapshot r.sched ~session_db:r.rdb ~seen:r.seen ~last_version:r.loaded);
  let parse () = timed (fun d -> l.parse <- l.parse +. d) (fun () -> Sql.Parser.parse_stmt sql) in
  let result =
    guarded (fun () ->
        ignore (parse ()) (* the session classifies the statement *);
        ignore (timed (fun d -> l.fingerprint <- d) (fun () -> Sql.Fingerprint.of_sql sql));
        let q = match parse () with Sql.Ast.Select q -> q | _ -> invalid_arg "not a SELECT" in
        let catalog = Db.catalog r.rdb in
        let plan =
          timed (fun d -> l.bind <- d) (fun () -> Relalg.Binder.bind_query ~catalog ~params:[||] q)
        in
        let plan = timed (fun d -> l.rewrite <- d) (fun () -> Relalg.Rewriter.rewrite plan) in
        let gov = Governor.start statement_budget in
        let ctx =
          Interp.create_ctx ~catalog ~indices:(Db.indices r.rdb) ~domains:(Db.parallelism r.rdb)
            ~check:(Governor.checkpoint gov) ()
        in
        let table = timed (fun d -> l.run <- d) (fun () -> Interp.run ctx plan) in
        let s = Interp.stats ctx in
        l.build <- s.Interp.graph_build_seconds;
        l.traverse <- s.Interp.graph_traverse_seconds;
        l.build_dict <- s.Interp.build_dict_seconds;
        l.build_encode <- s.Interp.build_encode_seconds;
        l.build_csr <- s.Interp.build_csr_seconds;
        l.built <- s.Interp.graphs_built;
        l.settled <- s.Interp.trav_settled;
        l.edges <- s.Interp.trav_edges;
        l.waves <- s.Interp.trav_waves;
        table)
  in
  match result with
  | Error line -> [ line ]
  | Ok table ->
    timed (fun d -> l.encode <- d) (fun () ->
        Protocol.ok_outcome ~snapshot:r.loaded (Db.Selected (Sqlgraph.Resultset.of_table table)))

(* Autocommit write or a whole transaction, on the shared Db under the
   writer lock, then publish, release and wait for the group fsync. *)
let replica_write r l stmts =
  let shared = Scheduler.db r.sched in
  List.iter
    (fun sql ->
      ignore (timed (fun d -> l.parse <- l.parse +. d) (fun () -> Db.protect (fun () -> Sql.Parser.parse_stmt sql))))
    stmts;
  match timed (fun d -> l.wait <- l.wait +. d) (fun () -> Scheduler.writer_acquire r.sched) with
  | `Busy _ -> [ "ERR busy" ]
  | `Ok -> (
    let rec apply = function
      | [] -> assert false
      | sql :: rest -> (
        match timed (fun d -> l.dml <- l.dml +. d) (fun () -> Db.exec shared ~budget:statement_budget sql) with
        | Ok o when rest = [] -> Ok o
        | Ok _ -> apply rest
        | Error e ->
          if List.length stmts > 1 then ignore (Db.exec shared "ROLLBACK");
          Error e)
    in
    let result = apply stmts in
    timed (fun d -> l.publish <- l.publish +. d) (fun () -> Scheduler.publish r.sched);
    let target = Scheduler.log_target r.sched in
    let version = Scheduler.snapshot_version r.sched in
    Scheduler.writer_release r.sched;
    match result with
    | Error e -> [ Protocol.err e ]
    | Ok o -> (
      match
        timed (fun d -> l.durable <- l.durable +. d) (fun () ->
            Db.protect (fun () -> Scheduler.wait_durable r.sched target))
      with
      | Error e -> [ Protocol.err e ]
      | Ok () ->
        timed (fun d -> l.encode <- l.encode +. d) (fun () -> Protocol.ok_outcome ~snapshot:version o)))

let replica_exec r req =
  let l = new_layers () in
  let t0 = now () in
  let lines =
    match req.kind with
    | Point _ | Weighted _ | Batch _ -> replica_read r l (List.hd req.stmts)
    | Insert _ | Delete _ | Txn _ -> replica_write r l req.stmts
    | Edge_move _ ->
      (* two autocommits, as a server session runs them *)
      let first = replica_write r l [ List.hd req.stmts ] in
      if Client.is_ok first then replica_write r l (List.tl req.stmts) else first
  in
  let t1 = now () in
  { req; t0; t1; lines; stmts_done = List.length req.stmts; layers = Some l }

(* ---- the load generator, a process of its own ---- *)

(* The clients run in their own process, as a server's clients do, so
   their threads never compete with the server's sessions for the OCaml
   runtime lock.  The records come back marshalled through [out]. *)
let client_main mix ~sessions ~seed ~seconds ~sock ~out =
  let ids = person_ids (make_data mix ~seed ~sessions) in
  Gc.compact ();
  let gens = Array.init sessions (fun i -> generator mix ids ~seed ~sessions ~stream:i) in
  let clients =
    Array.init sessions (fun _ ->
        let c = Client.connect_unix sock in
        ignore (Client.hello ~timeout_ms:request_timeout_ms c);
        c)
  in
  let window = closed_loop ~seconds ~gens ~exec:(fun i req -> wire_exec clients.(i) req) in
  Array.iter Client.close clients;
  let oc = open_out_bin out in
  Marshal.to_channel oc (window : float * record array) [];
  close_out oc

let load ~name ~seed ~seconds ~sock ~out =
  let args =
    [| Sys.executable_name; "--client"; sock; "--out"; out; "--workload"; name;
       "--seed"; string_of_int seed; "--seconds"; sprintf "%.17g" seconds |]
  in
  let pid = Unix.create_process Sys.executable_name args Unix.stdin Unix.stderr Unix.stderr in
  let deadline = now () +. seconds +. grace_s +. 60. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when now () < deadline ->
      Thread.delay 0.05;
      wait ()
    | 0, _ ->
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid);
      failwith "load generator did not finish"
    | _, Unix.WEXITED 0 -> ()
    | _, _ -> failwith "load generator failed"
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  wait ();
  let ic = open_in_bin out in
  let window : float * record array = Marshal.from_channel ic in
  close_in ic;
  window

(* ------------------------------------------------------------------ *)
(* Answer checking *)

type verdict = Good | Failed of string | Wrong of string

let verdict_of_lines lines check =
  let term = Client.terminal lines in
  if not (String.starts_with ~prefix:"OK" term) then Failed term
  else match check lines with Ok () -> Good | Error m -> Wrong m

(* Reference answers for weighted and batch statements: the same SQL,
   run serially on one in-process session over the same tables. *)
let serial_reference data records =
  match data with
  | Kv _ -> Hashtbl.create 1
  | Graph { snb; pairs; _ } ->
    let db = Db.create () in
    Db.load_table db ~name:"friends" snb.Datagen.Snb.friends;
    Array.iteri
      (fun i p -> Db.load_table db ~name:(pairs_table i) (Datagen.Workload.pairs_table p))
      pairs;
    or_fail "reference index" (Db.create_graph_index db ~table:"friends" ~src:"src" ~dst:"dst");
    ignore (Db.warm_graph_indexes db);
    let memo = Hashtbl.create 256 in
    Array.iter
      (fun r ->
        match r.req.kind with
        | Weighted _ | Batch _ ->
          let sql = List.hd r.req.stmts in
          if not (Hashtbl.mem memo sql) then
            let rows =
              match Db.exec db sql with
              | Ok o -> Check.rows (Protocol.ok_outcome ~snapshot:0 o)
              | Error e -> fail "serial reference failed: %s" (Sqlgraph.Error.to_string e)
            in
            Hashtbl.add memo sql rows
        | _ -> ())
      records;
    memo

let check_paths_warm data records =
  let snb = match data with Graph g -> g.snb | Kv _ -> assert false in
  (* the native distances come from a second domain while this one runs
     the serial reference pass: both are untimed, and this halves the
     wait for them *)
  let distances =
    Domain.spawn (fun () ->
        let native =
          Baselines.Native_bfs.of_table snb.Datagen.Snb.friends ~src_col:"src" ~dst_col:"dst"
        in
        Array.map
          (fun r ->
            match r.req.kind with
            | Point (s, d) -> Baselines.Native_bfs.distance native ~source:s ~target:d
            | _ -> None)
          records)
  in
  let reference = serial_reference data records in
  let distances = Domain.join distances in
  Array.mapi
    (fun i r ->
      verdict_of_lines r.lines (fun lines ->
          match r.req.kind with
          | Point _ -> Check.point ~expected:distances.(i) lines
          | _ -> Check.same_rows ~expected:(Hashtbl.find reference (List.hd r.req.stmts)) lines))
    records

(* Replay the acknowledged edge writes in snapshot order over a mutable
   copy of the base graph and check each read against the edge set of
   the snapshot version its OK line names. *)
let check_graph_churn data records =
  let ids, edges, pairs =
    match data with Graph g -> (g.ids, g.edges, g.pairs) | Kv _ -> assert false
  in
  let g = Check.Dyn.of_edges ~ids edges in
  let verdicts = Array.make (Array.length records) (Failed "unchecked") in
  let events =
    Array.to_list (Array.mapi (fun i r -> (i, r)) records)
    |> List.filter_map (fun (i, r) ->
           let term = Client.terminal r.lines in
           if not (String.starts_with ~prefix:"OK" term) then begin
             verdicts.(i) <- Failed term;
             None
           end
           else
             match Client.snapshot r.lines with
             | None ->
               verdicts.(i) <- Wrong ("no snapshot on " ^ term);
               None
             | Some v ->
               let is_write = match r.req.kind with Edge_move _ -> 0 | _ -> 1 in
               Some ((v, is_write, r.t1), i))
    |> List.sort compare
  in
  List.iter
    (fun (_, i) ->
      let r = records.(i) in
      let result =
        match r.req.kind with
        | Edge_move { add = a, b; drop = c, d } ->
          (* the response is the DELETE's: the INSERT was acked first *)
          Check.Dyn.add g a b;
          Check.dml ~verb:"DELETE" ~count:(Check.Dyn.remove_all g c d) r.lines
        | Point (s, d) -> Check.point ~expected:(Check.Dyn.distance g ~source:s ~target:d) r.lines
        | Batch stream ->
          let expected =
            Array.to_list pairs.(stream)
            |> List.filter_map (fun (s, d) ->
                   Option.map (sprintf "%d\t%d\t%d" s d) (Check.Dyn.distance g ~source:s ~target:d))
          in
          Check.batch ~expected r.lines
        | _ -> Error "unexpected request"
      in
      verdicts.(i) <- (match result with Ok () -> Good | Error m -> Wrong m))
    events;
  verdicts

let check_kv records =
  Array.map
    (fun r ->
      verdict_of_lines r.lines (fun lines ->
          match r.req.kind with
          | Insert _ -> Check.dml ~verb:"INSERT" ~count:1 lines
          | Delete _ -> Check.dml ~verb:"DELETE" ~count:1 lines
          | _ -> if Client.terminal lines |> String.starts_with ~prefix:"OK COMMIT" then Ok () else Error "no COMMIT"))
    records

(* After the timed windows: crash the WAL (no fsync, no checkpoint),
   reopen the directory and check every acknowledged insert is present,
   every acknowledged delete absent, and the row count adds up. *)
let kv_audit s records verdicts =
  Wal.crash_for_testing s.store;
  let store, db, _ = or_fail "reopen after crash" (Wal.open_dir ~fsync:true s.dir) in
  let tbl =
    match Storage.Catalog.find (Db.catalog db) "kv" with
    | Some t -> t
    | None -> failwith "kv table lost in recovery"
  in
  let present = Hashtbl.create (Storage.Table.nrows tbl) in
  let keys = Storage.Table.column tbl 0 in
  for row = 0 to Storage.Table.nrows tbl - 1 do
    match Storage.Column.get keys row with
    | Storage.Value.Int k -> Hashtbl.replace present k ()
    | _ -> ()
  done;
  let count =
    match Db.query db "SELECT COUNT(*) FROM kv" with
    | Ok rs -> (
      match Sqlgraph.Resultset.value rs with Storage.Value.Int n -> n | _ -> -1)
    | Error _ -> -1
  in
  Wal.close store;
  let problems = ref [] in
  let acked_ins = ref 0 and acked_del = ref 0 and unacked = ref 0 in
  Array.iteri
    (fun i r ->
      match (verdicts.(i), r.req.kind) with
      | Good, (Insert _ | Txn _) ->
        let ks = match r.req.kind with Insert k -> [ k ] | Txn ks -> ks | _ -> [] in
        List.iter
          (fun k ->
            incr acked_ins;
            if not (Hashtbl.mem present k) then
              problems := sprintf "acked insert k=%d lost" k :: !problems)
          ks
      | Good, Delete k ->
        incr acked_del;
        if Hashtbl.mem present k then problems := sprintf "acked delete k=%d present" k :: !problems
      | _, (Insert _ | Delete _) -> incr unacked
      | _, Txn ks -> unacked := !unacked + List.length ks
      | _ -> ())
    records;
  let expected = kv_preload + !acked_ins - !acked_del in
  (* an unacknowledged write may or may not have survived *)
  if abs (count - expected) > !unacked then
    problems := sprintf "COUNT(*) = %d, expected %d" count expected :: !problems;
  (List.rev !problems, count, expected)

(* ------------------------------------------------------------------ *)
(* Reporting *)

(* System-wide CPU time from /proc/stat, in ticks: (steal, total).
   Steal is time the hypervisor gave this VM's ready CPUs to others; it
   is recorded beside the results because it moves every latency. *)
let cpu_ticks () =
  try
    let ic = open_in "/proc/stat" in
    let l = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic) in
    match String.split_on_char ' ' l |> List.filter (( <> ) "") with
    | "cpu" :: user :: nice :: sys :: idle :: iowait :: irq :: softirq :: steal :: _ ->
      let xs = List.map int_of_string [ user; nice; sys; idle; iowait; irq; softirq; steal ] in
      (int_of_string steal, List.fold_left ( + ) 0 xs)
    | _ -> (0, 0)
  with Sys_error _ | End_of_file | Failure _ -> (0, 0)

let host_meta ~seed ~sessions ~steal_pct =
  let nproc =
    try
      let ic = Unix.open_process_in "nproc" in
      let n = input_line ic in
      ignore (Unix.close_process_in ic);
      int_of_string (String.trim n)
    with _ -> 0
  in
  (* git revision when run from a clone; otherwise a digest of the
     program sources, which names the code just as well *)
  let git_rev () =
    let ic = Unix.open_process_in "git rev-parse HEAD 2>/dev/null" in
    let r = try input_line ic with End_of_file -> "" in
    ignore (Unix.close_process_in ic);
    if r = "" then raise Not_found else r
  in
  let rev =
    try if Sys.file_exists ".git" then git_rev () else raise Not_found
    with _ ->
      let files = ref [] in
      let rec walk d =
        Array.iter
          (fun f ->
            let p = Filename.concat d f in
            if Sys.is_directory p then walk p
            else if Filename.check_suffix p ".ml" || Filename.check_suffix p ".mli" then
              files := p :: !files)
          (Sys.readdir d)
      in
      (try walk "lib" with Sys_error _ -> ());
      let digest =
        List.sort compare !files
        |> List.map (fun p -> Digest.to_hex (Digest.file p))
        |> String.concat "" |> Digest.string |> Digest.to_hex
      in
      "src-" ^ digest
  in
  [
    ("nproc", J.Int nproc);
    ("recommended_domain_count", J.Int (Domain.recommended_domain_count ()));
    ("ocaml", J.String Sys.ocaml_version);
    ("rev", J.String rev);
    ("seed", J.Int seed);
    ("sessions", J.Int sessions);
    ("fsync", J.String "on, group commit");
    ("steal_pct", J.num steal_pct);
  ]

let peak_rss_mb () =
  try
    let ic = open_in "/proc/self/status" in
    let rec find () =
      let l = input_line ic in
      if String.starts_with ~prefix:"VmHWM:" l then
        Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb -> float_of_int kb /. 1024.)
      else find ()
    in
    let v = try find () with End_of_file -> Float.nan in
    close_in ic;
    v
  with Sys_error _ -> Float.nan

(* Tails are printed with their sample counts, not reported as metrics:
   on a 2-vCPU virtual machine the hypervisor's steal time sets them
   (paths-warm's point p99 ranged from 2.1 to 7.1 ms over ten runs,
   rising with steal), so no bound could gate them.  The dominant class
   prints its p99 (>= 1000 samples per run, so >= 10 above it), the
   rarer classes their p90. *)
let tail_p slot = if slot = 0 then 99. else 90.
let tail_name slot = if slot = 0 then "p99" else "p90"

let latencies records slot =
  Array.to_list records |> List.filter (fun r -> r.req.slot = slot) |> List.map (fun r -> ms (r.t1 -. r.t0))

(* statements completed per second, up to the last completion (a hung
   request completes nothing) *)
let throughput start records =
  let last =
    Array.fold_left (fun m r -> if r.stmts_done > 0 then Float.max m r.t1 else m) start records
  in
  let n = Array.fold_left (fun n r -> n + r.stmts_done) 0 records in
  float_of_int n /. (last -. start)

(* End-to-end metrics of one window, in the order BENCHMARK.json lists
   them (setup_s and peak_rss_mb are added by the caller). *)
let e2e_metrics start records =
  ("throughput_sps", throughput start records, "1/s")
  :: List.map
       (fun slot -> (slot_names.(slot) ^ "_p50_ms", Stats.percentile (latencies records slot) 50., "ms"))
       [ 0; 1; 2 ]

(* The window cut into [slices] equal spans by completion time: the
   repetitions inside one run.  Each metric's value per slice, by name. *)
let per_slice start seconds records =
  let span = seconds /. float_of_int slices in
  List.init slices (fun k ->
      let lo = start +. (span *. float_of_int k) in
      let sub =
        Array.of_list
          (List.filter
             (fun r -> r.t1 >= lo && (r.t1 < lo +. span || k = slices - 1))
             (Array.to_list records))
      in
      e2e_metrics lo sub)

let slice_values per name =
  List.filter_map
    (fun m -> List.find_map (fun (n, v, _) -> if n = name && Float.is_finite v then Some v else None) m)
    per

let print_metric (name, v, unit) = Printf.printf "  %-34s %14.6f %s\n" name v unit

let json_metrics ms =
  J.Obj (List.map (fun (n, v, u) -> (n, J.Obj [ ("value", J.num v); ("unit", J.String u) ])) ms)

(* The traced window and the program's own counters across it. *)
type traced = {
  tstart : float;
  trecs : record array;
  wal_bytes : int; (* Wal.logical_end delta *)
  wal_checkpoints : int; (* Wal.gen delta *)
  index_hits : int; (* Graph_index.hits delta *)
  index_misses : int;
  group_mean : float; (* mean of the group-commit size histogram's new samples *)
}

(* Per-layer metrics of the traced window. *)
let layer_metrics mix ~n_vertices ~untraced_sps ~untraced_main_p50
    { tstart; trecs = traced; wal_bytes; wal_checkpoints; index_hits; index_misses; group_mean } =
  let of_class c =
    Array.to_list traced
    |> List.filter_map (fun r -> if (classes mix).(r.req.slot) = c then r.layers else None)
  in
  let main = Array.to_list traced |> List.filter_map (fun r -> if r.req.slot = 0 then r.layers else None) in
  let writes =
    Array.to_list traced
    |> List.filter_map (fun r ->
           match r.req.kind with
           | Insert _ | Delete _ | Txn _ | Edge_move _ -> r.layers
           | _ -> None)
  in
  let reads =
    Array.to_list traced
    |> List.filter_map (fun r ->
           match r.req.kind with Point _ | Weighted _ | Batch _ -> r.layers | _ -> None)
  in
  let zero_if_nan v = if Float.is_finite v then v else 0. in
  let p50 f ls = zero_if_nan (Stats.percentile (List.map (fun l -> ms (f l)) ls) 50.) in
  let p99 f ls = zero_if_nan (Stats.percentile (List.map (fun l -> ms (f l)) ls) 99.) in
  let avg f ls = zero_if_nan (Stats.mean (List.map (fun l -> float_of_int (f l)) ls)) in
  let point = of_class "point" in
  let weighted = of_class "weighted" in
  let batch = of_class "batch" in
  let builds = List.filter (fun l -> l.built > 0) reads in
  let nbuilds = List.fold_left (fun n l -> n + l.built) 0 reads in
  let build_avg f =
    if nbuilds = 0 then 0.
    else ms (List.fold_left (fun s l -> s +. f l) 0. builds) /. float_of_int nbuilds
  in
  let traced_sps = throughput tstart traced in
  let n_writes = List.length writes in
  [
    ("sql.parse_p50_ms", p50 (fun l -> l.parse) main, "ms");
    ("sql.fingerprint_p50_ms", p50 (fun l -> l.fingerprint) main, "ms");
    ("relalg.bind_p50_ms", p50 (fun l -> l.bind) (List.filter (fun l -> l.run > 0.) main), "ms");
    ("relalg.rewrite_p50_ms", p50 (fun l -> l.rewrite) (List.filter (fun l -> l.run > 0.) main), "ms");
    ("graph.point_traverse_p50_ms", p50 (fun l -> l.traverse) point, "ms");
    ("graph.point_settled", avg (fun l -> l.settled) point, "count");
    ("graph.point_edges", avg (fun l -> l.edges) point, "count");
    ( "graph.point_settled_ratio",
      (if n_vertices = 0 then 0. else avg (fun l -> l.settled) point /. float_of_int n_vertices),
      "ratio" );
    ("graph.weighted_traverse_p50_ms", p50 (fun l -> l.traverse) weighted, "ms");
    ("graph.weighted_edges", avg (fun l -> l.edges) weighted, "count");
    ("executor.weighted_other_p50_ms", p50 (fun l -> l.run -. l.build -. l.traverse) weighted, "ms");
    ("graph.batch_traverse_p50_ms", p50 (fun l -> l.traverse) batch, "ms");
    ("graph.batch_waves", avg (fun l -> l.waves) batch, "count");
    ("graph.batch_edges", avg (fun l -> l.edges) batch, "count");
    ( "executor.index_hit_ratio",
      (if index_hits + index_misses = 0 then 0.
       else float_of_int index_hits /. float_of_int (index_hits + index_misses)),
      "ratio" );
    ("graph.builds", float_of_int nbuilds, "count");
    ("graph.build_dict_ms", build_avg (fun l -> l.build_dict), "ms");
    ("graph.build_encode_ms", build_avg (fun l -> l.build_encode), "ms");
    ("graph.build_csr_ms", build_avg (fun l -> l.build_csr), "ms");
    ("executor.dml_p50_ms", p50 (fun l -> l.dml) writes, "ms");
    ("server.writer_wait_p99_ms", p99 (fun l -> l.wait) writes, "ms");
    ("server.publish_p50_ms", p50 (fun l -> l.publish) writes, "ms");
    ("server.durable_wait_p50_ms", p50 (fun l -> l.durable) writes, "ms");
    ("server.group_size_mean", group_mean, "count");
    ("server.refresh_p50_ms", p50 (fun l -> l.refresh) reads, "ms");
    ("server.encode_p50_ms", p50 (fun l -> l.encode) main, "ms");
    ("server.wire_p50_ms", untraced_main_p50 -. p50 layer_sum main, "ms");
    ( "core.wal_bytes_per_write",
      (if n_writes = 0 then 0. else float_of_int wal_bytes /. float_of_int n_writes),
      "bytes" );
    ("core.wal_checkpoints", float_of_int wal_checkpoints, "count");
    ("trace_overhead_pct", 100. *. (untraced_sps -. traced_sps) /. untraced_sps, "%");
  ]

(* Per class, the layer calls must tile the traced statement: the
   median statement's untimed share (latency minus the sum of its layer
   times, over its latency) stays within the tolerance.  A median, not a
   sum: when the other session takes the runtime lock between two layer
   calls, that statement's whole wait lands outside every layer, and a
   few such waits would dominate a sum. *)
let consistency_tolerance = 0.05

let consistency mix traced =
  List.filter_map
    (fun slot ->
      let shares =
        Array.to_list traced
        |> List.filter_map (fun r ->
               match r.layers with
               | Some l when r.req.slot = slot && r.t1 > r.t0 ->
                 Some ((r.t1 -. r.t0 -. layer_sum l) /. (r.t1 -. r.t0))
               | _ -> None)
      in
      if shares = [] then None else Some ((classes mix).(slot), Stats.median shares))
    [ 0; 1; 2 ]

let group_commit sched =
  match Telemetry.Registry.percentiles (Scheduler.metrics sched) "sqlgraph_server_group_commit_size" with
  | Some p -> (p.Telemetry.Registry.sum, p.Telemetry.Registry.count)
  | None -> (0., 0)

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let show_first label items =
  let clip m = if String.length m <= 240 then m else String.sub m 0 240 ^ "..." in
  List.iteri (fun i m -> if i < 5 then Printf.printf "  %s: %s\n" label (clip m)) items

let run mix ~sessions ~name ~seed ~seconds ~trace =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let t_begin = now () in
  let data = make_data mix ~seed ~sessions in
  (* relative paths: a Unix socket path must stay short *)
  let tmp = ".perfbench_tmp" in
  (* data directories left behind by runs that were killed *)
  (try
     Array.iter
       (fun pid -> if not (Sys.file_exists ("/proc/" ^ pid)) then rm_rf (Filename.concat tmp pid))
       (Sys.readdir tmp)
   with Sys_error _ -> ());
  let base = Filename.concat tmp (string_of_int (Unix.getpid ())) in
  mkdir_p base;
  let dir = Filename.concat base "data" and sock = Filename.concat base "s" in
  Fun.protect ~finally:(fun () ->
      rm_rf base;
      try Unix.rmdir (Filename.dirname base) with Unix.Unix_error _ -> ())
  @@ fun () ->
  let setup_times = ref [] in
  (* one round of set-ups; the last one is left running *)
  let setup_round () =
    let rec go n spent =
      Gc.compact ();
      let t0 = now () in
      let s = setup data ~dir ~sock in
      let d = now () -. t0 in
      setup_times := d :: !setup_times;
      let n = n + 1 and spent = spent +. d in
      if trace || n >= setup_max_reps || (n >= setup_min_reps && spent >= setup_min_seconds)
      then s
      else begin
        teardown s;
        go n spent
      end
    in
    go 0 0.
  in
  let s = setup_round () in
  let t_setups = now () in
  let ticks0 = cpu_ticks () in
  let sched = Server.scheduler s.srv in
  Gc.compact ();
  let start, records = load ~name ~seed ~seconds ~sock ~out:(Filename.concat base "records") in
  let traced =
    if not trace then None
    else begin
      let idx = Db.indices s.db in
      let hits0 = Executor.Graph_index.hits idx and misses0 = Executor.Graph_index.misses idx in
      let wal0 = Wal.logical_end s.store and gen0 = Wal.gen s.store in
      let gsum0, gcount0 = group_commit sched in
      let replicas = Array.init sessions (fun _ -> replica sched) in
      let gens =
        Array.init sessions (fun i ->
            generator mix (person_ids data) ~seed ~sessions ~stream:(sessions + i))
      in
      Gc.compact ();
      let tstart, trecs =
        closed_loop ~seconds ~gens ~exec:(fun i req -> replica_exec replicas.(i) req)
      in
      let gsum, gcount = group_commit sched in
      Some
        {
          tstart;
          trecs;
          wal_bytes =
            (if Wal.gen s.store = gen0 then Wal.logical_end s.store - wal0
             else Wal.logical_end s.store);
          wal_checkpoints = Wal.gen s.store - gen0;
          index_hits = Executor.Graph_index.hits idx - hits0;
          index_misses = Executor.Graph_index.misses idx - misses0;
          group_mean =
            (if gcount > gcount0 then (gsum -. gsum0) /. float_of_int (gcount - gcount0) else 0.);
        }
    end
  in
  let all =
    match traced with None -> records | Some t -> Array.append records t.trecs
  in
  let t_windows = now () in
  let steal_pct =
    let steal1, total1 = cpu_ticks () and steal0, total0 = ticks0 in
    if total1 > total0 then 100. *. float_of_int (steal1 - steal0) /. float_of_int (total1 - total0)
    else Float.nan
  in
  (* before the checks, whose reference runs would dominate it *)
  let peak_rss = peak_rss_mb () in
  disconnect s;
  let verdicts =
    match mix with
    | Paths_warm -> check_paths_warm data all
    | Graph_churn -> check_graph_churn data all
    | Kv_durable -> check_kv all
  in
  let audit =
    match mix with
    | Kv_durable -> Some (kv_audit s all verdicts)
    | _ ->
      Wal.close s.store;
      None
  in
  let t_checks = now () in
  if not trace then teardown (setup_round ());
  let reps = List.length !setup_times in
  let t_end = now () in
  (* ---- report ---- *)
  let errs = ref [] and wrong = ref [] in
  Array.iteri
    (fun i v ->
      let cls = (classes mix).(all.(i).req.slot) in
      match v with
      | Good -> ()
      | Failed m -> errs := sprintf "%s: %s" cls m :: !errs
      | Wrong m -> wrong := sprintf "%s %s: %s" cls (String.concat "; " all.(i).req.stmts) m :: !wrong)
    verdicts;
  let errs = List.rev !errs and wrong = List.rev !wrong in
  let audit_problems = match audit with Some (p, _, _) -> p | None -> [] in
  let attempted = Array.length all in
  let failed = List.length errs + List.length wrong + List.length audit_problems in
  Printf.printf
    "perfbench %s: seed %d, %d sessions closed loop without think time, %.0f s window%s; \
     server WAL fsync on with group commit\n"
    name seed sessions seconds
    (if trace then " plus a traced window" else "");
  let meta = host_meta ~seed ~sessions ~steal_pct in
  Printf.printf "host: %s\n"
    (String.concat " "
       (List.map (fun (k, v) -> sprintf "%s=%s" k (J.to_compact_string v)) meta));
  Printf.printf "phases: inputs and set-ups %.1f s, timed windows %.1f s, checks %.1f s\n"
    (t_setups -. t_begin +. t_end -. t_checks) (t_windows -. t_setups) (t_checks -. t_windows);
  let q1, setup_s, q3 = Stats.quartiles !setup_times in
  if not trace then
    Printf.printf "set-up: median %.4f s (q1 %.4f, q3 %.4f) over %d set-ups\n" setup_s q1 q3 reps;
  Printf.printf "  %-5s %-9s %7s %12s %5s %12s %6s\n" "slot" "class" "n" "p50_ms" "tail" "tail_ms" "above";
  Array.iteri
    (fun slot cls ->
      let xs = latencies records slot in
      let above = Stats.above xs (tail_p slot) in
      Printf.printf "  %-5s %-9s %7d %12.4f %5s %12.4f %6d%s\n" slot_names.(slot) cls (List.length xs)
        (Stats.percentile xs 50.) (tail_name slot) (Stats.percentile xs (tail_p slot)) above
        (if above < 10 then "  (fewer than 10 samples above the tail percentile)" else ""))
    (classes mix);
  Printf.printf "answers: %d requests, %d ERR, %d wrong, %d audit problems; error_ratio %.6f\n"
    attempted (List.length errs) (List.length wrong) (List.length audit_problems)
    (float_of_int failed /. float_of_int attempted);
  show_first "ERR" errs;
  show_first "wrong" wrong;
  (match audit with
  | Some (p, count, expected) ->
    Printf.printf "kv audit after crash and reopen: COUNT(*) %d, expected %d, %s\n" count expected
      (if p = [] then "every acked insert present and every acked delete absent"
       else sprintf "%d problems" (List.length p));
    show_first "audit" p
  | None -> ());
  (* each metric is the median of its values over the window's slices,
     so a burst of host load in one slice does not move it *)
  let per = per_slice start seconds records in
  let e2e =
    List.map
      (fun (name, _, unit) -> (name, Stats.median (slice_values per name), unit))
      (e2e_metrics start records)
  in
  let main_p50 = match e2e with _ :: (_, v, _) :: _ -> v | _ -> Float.nan in
  let consistent, metrics =
    match traced with
    | None ->
      ( true,
        (("setup_s", setup_s, "s") :: e2e) @ [ ("peak_rss_mb", peak_rss, "MB") ] )
    | Some t ->
      let shares = consistency mix t.trecs in
      Printf.printf "traced window: median untimed share of a statement, tolerance %.0f%%:%s\n"
        (100. *. consistency_tolerance)
        (String.concat "" (List.map (fun (c, g) -> sprintf " %s %.2f%%" c (100. *. g)) shares));
      let n_vertices = match data with Graph g -> Array.length g.ids | Kv _ -> 0 in
      ( List.for_all (fun (_, g) -> Float.abs g <= consistency_tolerance) shares,
        layer_metrics mix ~n_vertices ~untraced_sps:(throughput start records)
          ~untraced_main_p50:main_p50 t )
  in
  Printf.printf "%s metrics:\n" (if trace then "per-layer" else "end-to-end");
  List.iter print_metric metrics;
  let spread =
    if trace then []
    else
      ( "setup_s",
        J.Obj [ ("median", J.num setup_s); ("q1", J.num q1); ("q3", J.num q3) ] )
      :: List.map
           (fun (name, _, _) ->
             let q1, q2, q3 = Stats.quartiles (slice_values per name) in
             (name, J.Obj [ ("median", J.num q2); ("q1", J.num q1); ("q3", J.num q3) ]))
           e2e
  in
  print_endline
    (J.to_compact_string
       (J.Obj
          [
            ("meta", J.Obj meta);
            ("workload", J.String name);
            ("spread_over", J.String (sprintf "%d set-ups; %d equal slices of the window" reps slices));
            ("spread", J.Obj spread);
          ]));
  let correct = wrong = [] && audit_problems = [] && consistent in
  print_endline
    (J.to_compact_string
       (J.Obj
          [
            ("correct", J.Bool correct);
            ("attempted", J.Int attempted);
            ("failed", J.Int failed);
            ("metrics", json_metrics metrics);
          ]))

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let client = ref "" and out = ref "" in
  Arg.parse
    [
      ( "--workload",
        Arg.Set_string workload,
        "NAME paths-warm | kv-durable | graph-churn | paths-shared (not measured: fails)" );
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed window");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
      ("--client", Arg.Set_string client, "SOCKET (internal) run the load generator against SOCKET");
      ("--out", Arg.Set_string out, "FILE (internal) where the load generator writes its records");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench --workload NAME --seed N --seconds S --trace 0|1";
  match workload_of_name !workload with
  | None ->
    prerr_endline ("unknown workload: " ^ !workload);
    exit 2
  | Some (mix, sessions) when !client <> "" ->
    client_main mix ~sessions ~seed:!seed ~seconds:!seconds ~sock:!client ~out:!out
  | Some (mix, sessions) ->
    run mix ~sessions ~name:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
