(* Work-stealing scheduler for traversal tasks.

   Every [Runtime.run_pairs] batch, whatever its [domains], runs its
   fixed task partition here. Each worker owns a {!Deque} of task
   ranges: it pops locally (LIFO), executes one step, pushes the
   remainder back, and steals the oldest range from a sibling when its
   own deque runs dry — so a skewed task distribution keeps every worker
   busy without any up-front balancing.

   Worker 0 runs on the calling domain; workers 1..n-1 are spawned and
   joined before [run] returns, so no domain outlives the batch. A batch
   planned for one worker (domains = 1, or a single task) therefore runs
   inline and spawns nothing. Exceptions from [exec] are captured in a
   first-failure cell; the other workers stop at their next task
   boundary and the first failure re-raises on the caller after every
   domain has joined.

   [plan] clamps the worker count to what the hardware can actually run
   ([Domain.recommended_domain_count]): on a machine with fewer cores
   than requested domains, spawning the full count just makes every
   minor GC a cross-domain synchronisation on one core — the 6× slowdown
   the old scheduler exhibited. Tests that need to exercise real
   multi-worker stealing on a small machine pass [~oversubscribe:true]
   to lift the clamp. *)

type stats = {
  workers : int;  (* workers that actually ran *)
  tasks : int;  (* task executions, continuations included *)
  steals : int;  (* successful steals from a sibling deque *)
  splits : int;  (* continuations pushed back (adaptive splits) *)
  max_worker_tasks : int;
  min_worker_tasks : int;
}

let imbalance_pct st =
  if st.max_worker_tasks <= 0 then 0
  else 100 * (st.max_worker_tasks - st.min_worker_tasks) / st.max_worker_tasks

let available () = max 1 (Domain.recommended_domain_count ())

let plan ?(oversubscribe = false) ~domains ntasks =
  let w = min domains ntasks in
  let w = if oversubscribe then w else min w (available ()) in
  max 1 w

let run ?(around = fun _k body -> body ()) ~workers ~tasks ~exec () =
  if workers < 1 then invalid_arg "Sched.run: workers < 1";
  if Array.length tasks <> workers then
    invalid_arg "Sched.run: one initial task list per worker";
  let deques = Array.map Deque.of_list tasks in
  let total = Array.fold_left (fun a l -> a + List.length l) 0 tasks in
  let remaining = Atomic.make total in
  let failed : exn option Atomic.t = Atomic.make None in
  let task_counts = Array.make workers 0 in
  let steal_counts = Array.make workers 0 in
  let split_counts = Array.make workers 0 in
  let worker k () =
    around k @@ fun () ->
    let my = deques.(k) in
    (* Own deque first; otherwise try each sibling once, nearest first. *)
    let obtain () =
      match Deque.pop my with
      | Some _ as t -> t
      | None ->
        let r = ref None in
        let v = ref 1 in
        while !r = None && !v < workers do
          (match Deque.steal deques.((k + !v) mod workers) with
          | Some _ as t ->
            steal_counts.(k) <- steal_counts.(k) + 1;
            r := t
          | None -> ());
          incr v
        done;
        !r
    in
    let running = ref true in
    while !running do
      if Atomic.get remaining = 0 || Atomic.get failed <> None then
        running := false
      else
        match obtain () with
        | None ->
          (* Someone else holds the last tasks in-flight; they will
             either finish (remaining hits 0) or split (a steal will
             succeed next round). *)
          Domain.cpu_relax ()
        | Some task -> (
          task_counts.(k) <- task_counts.(k) + 1;
          match exec ~worker:k task with
          | Some rest ->
            (* One step done, the remainder goes back on the bottom of
               the owner's deque where a thief can take it: [remaining]
               is unchanged (one task consumed, one produced). *)
            split_counts.(k) <- split_counts.(k) + 1;
            Deque.push my rest
          | None -> ignore (Atomic.fetch_and_add remaining (-1))
          | exception e ->
            ignore (Atomic.compare_and_set failed None (Some e));
            ignore (Atomic.fetch_and_add remaining (-1)))
    done
  in
  let guarded k () =
    try worker k ()
    with e -> ignore (Atomic.compare_and_set failed None (Some e))
  in
  let spawned = Array.init (workers - 1) (fun i -> Domain.spawn (guarded (i + 1))) in
  guarded 0 ();
  Array.iter Domain.join spawned;
  (match Atomic.get failed with Some e -> raise e | None -> ());
  let sum = Array.fold_left ( + ) 0 task_counts in
  {
    workers;
    tasks = sum;
    steals = Array.fold_left ( + ) 0 steal_counts;
    splits = Array.fold_left ( + ) 0 split_counts;
    max_worker_tasks = Array.fold_left max 0 task_counts;
    min_worker_tasks = Array.fold_left min max_int task_counts;
  }
