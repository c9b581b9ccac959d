(** Work-stealing scheduler for traversal tasks.

    Every [Runtime.run_pairs] batch runs here, serial ones included: a
    single worker runs inline on the caller and spawns no domain. Each
    worker owns a {!Deque} of task ranges, executes one step at a time
    (pushing the remainder back so thieves can take it), and steals the
    oldest range from a sibling when its own deque runs dry. Skewed task
    distributions therefore keep every worker busy instead of idling the
    unlucky chunks.

    Determinism: the scheduler never decides *what* the tasks are — the
    caller fixes the task partition up front — so results written to
    disjoint slots, and any per-task counters summed at the join, are
    identical for every worker count and steal interleaving. *)

(** Aggregate scheduling counters for one [run]. *)
type stats = {
  workers : int;  (** workers that actually ran *)
  tasks : int;  (** task executions (continuations included) *)
  steals : int;  (** successful steals from a sibling's deque *)
  splits : int;  (** continuations pushed back (adaptive task splits) *)
  max_worker_tasks : int;
  min_worker_tasks : int;
}

(** [imbalance_pct st] — [100 * (max - min) / max] over per-worker task
    counts; 0 when perfectly balanced (or nothing ran). *)
val imbalance_pct : stats -> int

(** Workers this machine can genuinely run in parallel
    ([Domain.recommended_domain_count], at least 1). *)
val available : unit -> int

(** [plan ~domains ntasks] — the effective worker count: at most
    [domains], at most [ntasks], and (unless [oversubscribe]) at most
    {!available} — spawning more domains than cores turns every minor GC
    into a cross-domain synchronisation and makes parallelism a
    slowdown. [oversubscribe] lifts the hardware clamp for tests that
    must exercise multi-worker stealing on small machines. *)
val plan : ?oversubscribe:bool -> domains:int -> int -> int

(** [run ~workers ~tasks ~exec ()] — run until every task (and every
    continuation) has executed. [tasks] seeds one deque per worker
    ([Array.length tasks = workers]). [exec ~worker t] performs one step
    of task [t] and returns [Some rest] to reschedule the remainder (it
    goes back on worker [worker]'s deque, stealable) or [None] when [t]
    is finished.

    Worker 0 runs on the calling domain; the rest are spawned and all
    are joined before [run] returns. [around] wraps each worker's whole
    loop (used for per-domain trace spans); it runs on that worker's
    domain. The first exception raised by [exec] (or [around]) stops
    every worker at its next task boundary and re-raises on the caller
    after the join. *)
val run :
  ?around:(int -> (unit -> unit) -> unit) ->
  workers:int ->
  tasks:'a list array ->
  exec:(worker:int -> 'a -> 'a option) ->
  unit ->
  stats
