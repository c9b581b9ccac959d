(* Bit-parallel multi-source BFS (after Then et al., "The More the
   Merrier: Efficient Multi-Source Graph Traversal", VLDB 2015).

   Up to 63 BFS sources run as *lanes* of one wave: every vertex carries
   an int bitmask of the lanes that have reached it ([seen]) and of the
   lanes whose frontier currently contains it ([cur_mask]). One sweep
   over the CSR advances all lanes at once, so a batch of S sources costs
   ~⌈S/63⌉ sweeps instead of S.

   Parent bookkeeping is per *discovery*, not per vertex: when a set of
   lanes first reaches [v] through edge (u, slot), one record (mask, u,
   slot, level) is appended to the workspace's record pool. Per-lane
   distances and paths are read back from those records after the wave.

   Canonical parents: frontiers are scanned in ascending vertex id and
   out-edges in ascending slot, so the first edge offering a lane to [v]
   is the minimal forward CSR slot among that lane's shortest-path
   parents — exactly the parent the scalar level-synchronous Bfs settles.
   The bottom-up step preserves this because every reverse in-edge list
   is sorted by forward slot (Csr.reverse). MS-BFS results are therefore
   byte-identical to per-source scalar runs. *)

let max_lanes = 62 + 1 (* 63: all lanes fit a tagged 63-bit OCaml int *)

let popcount x =
  let c = ref 0 and x = ref x in
  while !x <> 0 do
    incr c;
    x := !x land (!x - 1)
  done;
  !c

(* log2 of a single set bit (bit = 1 lsl lane, lane < 63). Only runs on
   target hits — a few hundred per wave at most. *)
let lane_of_bit bit =
  let i = ref 0 and b = ref bit in
  while !b <> 1 do
    b := !b lsr 1;
    incr i
  done;
  !i

(* The kernel does no more work than the pending targets need:

   - *Lane retirement*: per-lane pending-target counts; a lane whose
     targets are all delivered drops out of the [active] mask, so
     frontier vertices carrying only retired lanes are skipped without
     touching their edges, and bottom-up vertices stop pulling for
     them.
   - *Mid-level completion abort*: the sweep stops the moment the last
     pending target is delivered instead of finishing the level.
   - *Closure-free edge loops*: the CSR slot arrays are read with
     direct unsafe loads when plainly represented (Ivec.words) instead
     of an indirect callback per edge (Csr.iter_out).

   None of these changes the discovery order, so every parent recorded
   is still the canonical one. Counters are deterministic for a given
   wave composition. *)
let run ?(check = Cancel.none) ?rev ?(alpha = Bfs.default_alpha)
    ?(beta = Bfs.default_beta) (ws : Workspace.t) (csr : Csr.t) ~sources
    ~targets =
  let nlanes = Array.length sources in
  if nlanes = 0 || nlanes > max_lanes then
    invalid_arg
      (Printf.sprintf "Msbfs.run: %d sources (want 1..%d)" nlanes max_lanes);
  let n = csr.Csr.vertex_count in
  let offsets = csr.Csr.offsets in
  let bs = Workspace.batch_state ws in
  Workspace.reset_batch bs;
  let c = Workspace.counters ws in
  c.Workspace.searches <- c.Workspace.searches + nlanes;
  Workspace.note_wave ws;
  let seen = bs.Workspace.seen
  and cur_mask = bs.Workspace.cur_mask
  and next_mask = bs.Workspace.next_mask
  and tgt_mask = bs.Workspace.tgt_mask in
  let cur = ref bs.Workspace.cur_vs and next = ref bs.Workspace.next_vs in
  let ncur = ref 0 in
  Array.iteri
    (fun lane s ->
      let bit = 1 lsl lane in
      if seen.(s) = 0 then begin
        !cur.(!ncur) <- s;
        incr ncur
      end;
      seen.(s) <- seen.(s) lor bit;
      cur_mask.(s) <- cur_mask.(s) lor bit)
    sources;
  Workspace.sort_prefix !cur !ncur;
  let pending = Array.make nlanes 0 in
  let remaining = ref 0 in
  Array.iter
    (fun (lane, dst) ->
      let bit = 1 lsl lane in
      if sources.(lane) <> dst && tgt_mask.(dst) land bit = 0 then begin
        tgt_mask.(dst) <- tgt_mask.(dst) lor bit;
        pending.(lane) <- pending.(lane) + 1;
        incr remaining
      end)
    targets;
  (* A lane with nothing pending (targets all equal to its source, or
     none at all) retires before the first sweep. *)
  let active = ref 0 in
  for lane = 0 to nlanes - 1 do
    if pending.(lane) > 0 then active := !active lor (1 lsl lane)
  done;
  let retire hits =
    let h = ref hits in
    while !h <> 0 do
      let bit = !h land - !h in
      h := !h land lnot bit;
      let lane = lane_of_bit bit in
      pending.(lane) <- pending.(lane) - 1;
      if pending.(lane) = 0 then active := !active land lnot bit
    done
  in
  let tk = Cancel.ticker check ~site:"bfs" in
  let m_unexplored = ref (Csr.edge_count csr) in
  for i = 0 to !ncur - 1 do
    m_unexplored := !m_unexplored - Csr.out_degree csr !cur.(i)
  done;
  let edges = ref 0 in
  let settled = ref nlanes in
  let level = ref 0 in
  let bottom_up = ref false in
  Workspace.note_frontier ws !ncur;
  (* Seeding the lanes counts as one step even when every target is
     trivially satisfied and the loop never runs: cancellation (and an
     armed fault) must be able to fire once per wave at this site. *)
  Cancel.tick tk ~frontier:!ncur;
  while !remaining > 0 && !ncur > 0 do
    (match rev with
    | None -> ()
    | Some _ ->
      if not !bottom_up then begin
        (* Frontier volume counts only vertices still carrying an
           active lane — retired lanes' vertices won't be scanned. *)
        let m_frontier = ref 0 in
        for i = 0 to !ncur - 1 do
          let u = !cur.(i) in
          if cur_mask.(u) land !active <> 0 then
            m_frontier := !m_frontier + (offsets.(u + 1) - offsets.(u))
        done;
        if !m_frontier * alpha > !m_unexplored then begin
          bottom_up := true;
          Workspace.note_dir_switch ws
        end
      end
      else if !ncur * beta < n then begin
        bottom_up := false;
        Workspace.note_dir_switch ws
      end);
    let nnext = ref 0 in
    let d = !level in
    let discover v avail ~parent ~slot =
      if next_mask.(v) = 0 then begin
        if seen.(v) = 0 then
          m_unexplored := !m_unexplored - (offsets.(v + 1) - offsets.(v));
        !next.(!nnext) <- v;
        incr nnext
      end;
      next_mask.(v) <- next_mask.(v) lor avail;
      Workspace.add_record bs ~v ~mask:avail ~parent ~slot ~level:(d + 1);
      settled := !settled + popcount avail;
      let hits = avail land tgt_mask.(v) in
      if hits <> 0 then begin
        remaining := !remaining - popcount hits;
        tgt_mask.(v) <- tgt_mask.(v) land lnot hits;
        retire hits
      end
    in
    (match (!bottom_up, rev) with
    | true, Some rev ->
      let front = ref 0 in
      for i = 0 to !ncur - 1 do
        front := !front lor cur_mask.(!cur.(i))
      done;
      let pull = !front in
      let roff = rev.Csr.offsets in
      (* [active] may shrink while this level runs; re-masking per
         vertex retires pulls as soon as the last target lands. *)
      (match (Ivec.words rev.Csr.targets, Ivec.words rev.Csr.edge_rows) with
      | Some rtg, Some rsl ->
        let v = ref 0 in
        while !remaining > 0 && !v < n do
          let vv = !v in
          let poss = ref (pull land !active land lnot seen.(vv)) in
          if !poss <> 0 then begin
            Cancel.tick tk ~frontier:!ncur;
            let k = ref roff.(vv) in
            let stop = roff.(vv + 1) in
            let k0 = !k in
            while !poss <> 0 && !k < stop do
              let u = Array.unsafe_get rtg !k in
              let avail = Array.unsafe_get cur_mask u land !poss in
              if avail <> 0 then begin
                discover vv avail ~parent:u ~slot:(Array.unsafe_get rsl !k);
                poss := !poss land lnot avail
              end;
              incr k
            done;
            edges := !edges + (!k - k0)
          end;
          incr v
        done
      | _ ->
        let tg = rev.Csr.targets and sl = rev.Csr.edge_rows in
        let v = ref 0 in
        while !remaining > 0 && !v < n do
          let vv = !v in
          let poss = ref (pull land !active land lnot seen.(vv)) in
          if !poss <> 0 then begin
            Cancel.tick tk ~frontier:!ncur;
            let k = ref roff.(vv) in
            let stop = roff.(vv + 1) in
            let k0 = !k in
            while !poss <> 0 && !k < stop do
              let u = Ivec.get tg !k in
              let avail = Array.unsafe_get cur_mask u land !poss in
              if avail <> 0 then begin
                discover vv avail ~parent:u ~slot:(Ivec.get sl !k);
                poss := !poss land lnot avail
              end;
              incr k
            done;
            edges := !edges + (!k - k0)
          end;
          incr v
        done)
    | _ ->
      (* Top-down: skip frontier vertices whose lanes all retired; stop
         the sweep as soon as nothing is pending. [fm] is snapshotted
         per vertex, so a lane retired by one of u's own edges may add
         a few more (never-read) records from u's remaining edges —
         deterministic either way, and cheaper than re-masking per
         edge. *)
      (match Ivec.words csr.Csr.targets with
      | Some tgts ->
        let i = ref 0 in
        while !remaining > 0 && !i < !ncur do
          let u = !cur.(!i) in
          let fm = cur_mask.(u) land !active in
          if fm <> 0 then begin
            Cancel.tick tk ~frontier:!ncur;
            let k = ref offsets.(u) in
            let stop = offsets.(u + 1) in
            edges := !edges + (stop - !k);
            while !k < stop do
              let v = Array.unsafe_get tgts !k in
              let avail =
                fm
                land lnot (Array.unsafe_get seen v)
                land lnot (Array.unsafe_get next_mask v)
              in
              if avail <> 0 then discover v avail ~parent:u ~slot:!k;
              incr k
            done
          end;
          incr i
        done
      | None ->
        let tg = csr.Csr.targets in
        let i = ref 0 in
        while !remaining > 0 && !i < !ncur do
          let u = !cur.(!i) in
          let fm = cur_mask.(u) land !active in
          if fm <> 0 then begin
            Cancel.tick tk ~frontier:!ncur;
            let k = ref offsets.(u) in
            let stop = offsets.(u + 1) in
            edges := !edges + (stop - !k);
            while !k < stop do
              let v = Ivec.get tg !k in
              let avail =
                fm land lnot seen.(v) land lnot next_mask.(v)
              in
              if avail <> 0 then discover v avail ~parent:u ~slot:!k;
              incr k
            done
          end;
          incr i
        done);
      Workspace.sort_prefix !next !nnext);
    for i = 0 to !ncur - 1 do
      cur_mask.(!cur.(i)) <- 0
    done;
    for j = 0 to !nnext - 1 do
      let v = !next.(j) in
      seen.(v) <- seen.(v) lor next_mask.(v);
      cur_mask.(v) <- next_mask.(v);
      next_mask.(v) <- 0
    done;
    let t = !cur in
    cur := !next;
    next := t;
    ncur := !nnext;
    incr level;
    Workspace.note_frontier ws !nnext
  done;
  c.Workspace.settled <- c.Workspace.settled + !settled;
  c.Workspace.edges_scanned <- c.Workspace.edges_scanned + !edges;
  Cancel.flush tk

let dist (ws : Workspace.t) ~lane ~source ~dst =
  if source = dst then Some 0
  else
    let bs = Workspace.batch_state ws in
    let k = Workspace.find_record bs ~v:dst ~lane in
    if k < 0 then None else Some bs.Workspace.rec_level.(k)

let edge_rows (ws : Workspace.t) (csr : Csr.t) ~lane ~source ~dst =
  if source = dst then [||]
  else begin
    let bs = Workspace.batch_state ws in
    let k = Workspace.find_record bs ~v:dst ~lane in
    if k < 0 then invalid_arg "Msbfs.edge_rows: destination not reached";
    let hops = bs.Workspace.rec_level.(k) in
    let rows = Array.make hops 0 in
    let v = ref dst in
    for i = hops - 1 downto 0 do
      let k = Workspace.find_record bs ~v:!v ~lane in
      rows.(i) <- Ivec.get csr.Csr.edge_rows bs.Workspace.rec_slot.(k);
      v := bs.Workspace.rec_parent.(k)
    done;
    rows
  end
