(* Answer checking: parse a response's wire lines and compare them with
   an oracle.  A mismatch is returned as a message — the caller counts
   it as a wrong answer and keeps going; nothing here aborts a run. *)

let rows lines =
  List.filter_map
    (fun l ->
      if String.starts_with ~prefix:"ROW " l then Some (String.sub l 4 (String.length l - 4))
      else None)
    lines

let show = function None -> "unreachable" | Some d -> string_of_int d

(* A single-pair CHEAPEST SUM(1): one row holding the hop count, or no
   row when the target is unreachable. *)
let point ~expected lines =
  match (rows lines, expected) with
  | [], None -> Ok ()
  | [ r ], Some d when int_of_string_opt r = Some d -> Ok ()
  | got, _ ->
    Error
      (Printf.sprintf "expected %s, got [%s]" (show expected) (String.concat "; " got))

(* A batched pairs query: one "s\td\tcost" row per reachable pair, in
   any order. *)
let batch ~expected lines =
  let sort l = List.sort compare l in
  let got = sort (rows lines) and want = sort expected in
  if got = want then Ok ()
  else
    Error
      (Printf.sprintf "%d rows, expected %d (first difference: %s)" (List.length got)
         (List.length want)
         (match List.find_opt (fun r -> not (List.mem r want)) got with
         | Some r -> "unexpected " ^ String.escaped r
         | None -> (
           match List.find_opt (fun r -> not (List.mem r got)) want with
           | Some r -> "missing " ^ String.escaped r
           | None -> "duplicate rows")))

(* Rows must equal a reference run's rows exactly, order included. *)
let same_rows ~expected lines =
  let got = rows lines in
  if got = expected then Ok ()
  else
    Error
      (Printf.sprintf "rows differ from the serial pass: got %d rows [%s], expected %d"
         (List.length got)
         (String.escaped (String.concat "; " got))
         (List.length expected))

(* An acknowledged DML statement reports how many rows it touched. *)
let dml ~verb ~count lines =
  let term = Sqlgraph_server.Client.terminal lines in
  match String.split_on_char ' ' term with
  | "OK" :: v :: n :: _ when v = verb && int_of_string_opt n = Some count -> Ok ()
  | _ -> Error (Printf.sprintf "expected OK %s %d, got %s" verb count term)

(* A directed multigraph over a fixed vertex set that edge inserts and
   deletes change in place: the oracle for path answers while the edge
   table churns.  DELETE removes every row of a (src, dst) pair, as the
   SQL statement does. *)
module Dyn = struct
  type t = {
    index : (int, int) Hashtbl.t;
    adj : int array array;
    deg : int array;
    dist : int array;
    stamp : int array;
    queue : int array;
    mutable epoch : int;
  }

  let create ~ids =
    let n = Array.length ids in
    let index = Hashtbl.create n in
    Array.iteri (fun i id -> Hashtbl.replace index id i) ids;
    {
        index;
        adj = Array.make n [||];
        deg = Array.make n 0;
        dist = Array.make n 0;
        stamp = Array.make n 0;
        queue = Array.make n 0;
      epoch = 0;
    }

  let add t src dst =
    match (Hashtbl.find_opt t.index src, Hashtbl.find_opt t.index dst) with
    | Some a, Some b ->
      let d = t.deg.(a) in
      if d = Array.length t.adj.(a) then begin
        let grown = Array.make (max 4 (2 * d)) 0 in
        Array.blit t.adj.(a) 0 grown 0 d;
        t.adj.(a) <- grown
      end;
      t.adj.(a).(d) <- b;
      t.deg.(a) <- d + 1
    | _ -> invalid_arg "Check.Dyn.add: unknown vertex"

  let of_edges ~ids edges =
    let t = create ~ids in
    Array.iter (fun (s, d) -> add t s d) edges;
    t

  (* Remove every (src, dst) edge; returns how many went. *)
  let remove_all t src dst =
    match (Hashtbl.find_opt t.index src, Hashtbl.find_opt t.index dst) with
    | Some a, Some b ->
      let row = t.adj.(a) and k = ref 0 in
      for i = 0 to t.deg.(a) - 1 do
        if row.(i) <> b then begin
          row.(!k) <- row.(i);
          incr k
        end
      done;
      let removed = t.deg.(a) - !k in
      t.deg.(a) <- !k;
      removed
    | _ -> 0

  (* Unweighted hop count by breadth-first search, stopping at the
     target. *)
  let distance t ~source ~target =
    match (Hashtbl.find_opt t.index source, Hashtbl.find_opt t.index target) with
    | Some s, Some d ->
      if s = d then Some 0
      else begin
        t.epoch <- t.epoch + 1;
        let ep = t.epoch in
        t.stamp.(s) <- ep;
        t.dist.(s) <- 0;
        t.queue.(0) <- s;
        let head = ref 0 and tail = ref 1 and found = ref None in
        while !found = None && !head < !tail do
          let u = t.queue.(!head) in
          incr head;
          let du = t.dist.(u) + 1 in
          let row = t.adj.(u) in
          for i = 0 to t.deg.(u) - 1 do
            let v = row.(i) in
            if t.stamp.(v) <> ep then begin
              t.stamp.(v) <- ep;
              t.dist.(v) <- du;
              if v = d then found := Some du;
              t.queue.(!tail) <- v;
              incr tail
            end
          done
        done;
        !found
      end
    | _ -> None
end
