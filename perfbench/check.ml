(* Reading served responses back, and the output checks every run makes:
   every response ok:true, the sample-free panel equal to its exact
   answer with zero variance, ~1% of executes (fixed by the seed)
   re-run in process and equal to the served estimate bit for bit, and
   each sampled estimate's 95% normal CI tested against the exact
   answer. *)

module Json = Gus_service.Json
module Runner = Gus_sql.Runner
module Samples = Stats.Samples

type cell = {
  keys : string list;  (** group keys; [] outside GROUP BY *)
  label : string;
  est : float;
  sd : float;
  lo : float;
  hi : float;
}

type exec = { handle : string; cached : bool; cells : cell list; n_tuples : int }

let field name j =
  match Json.member name j with
  | Some v -> v
  | None -> failwith (Printf.sprintf "response lacks %S" name)

let typed what conv name j =
  match conv (field name j) with
  | Some v -> v
  | None -> failwith (Printf.sprintf "field %S: expected %s" name what)

let num = typed "number" Json.to_num
let str = typed "string" Json.to_str
let list = typed "list" Json.to_list
let is_ok j = Json.member "ok" j = Some (Json.Bool true)

let error_text j =
  match Json.member "error" j with
  | Some e -> Json.to_string e
  | None -> Json.to_string j

let cells_of ~keys j =
  List.map
    (fun c ->
      let ci = field "ci95_normal" c in
      { keys; label = str "label" c; est = num "estimate" c;
        sd = num "stddev" c; lo = num "lo" ci; hi = num "hi" ci })
    (list "cells" j)

let keys_of g =
  List.map (fun k -> Option.value ~default:"" (Json.to_str k)) (list "keys" g)

let exec_of j =
  if not (is_ok j) then failwith (error_text j);
  let r = field "result" j in
  let groups = Option.value ~default:[] (Option.bind (Json.member "groups" r) Json.to_list) in
  { handle = str "handle" j;
    cached = Json.member "cached" j = Some (Json.Bool true);
    cells =
      cells_of ~keys:[] r
      @ List.concat_map (fun g -> cells_of ~keys:(keys_of g) g) groups;
    n_tuples = int_of_float (num "n_sample_tuples" r) }

(* The execute items a response carries: one for [execute], one per item
   for [batch], none for other verbs.  [Error] on any ok:false. *)
let parse line =
  try
    let j = Json.of_string line in
    if not (is_ok j) then Error (error_text j)
    else
      match Json.member "op" j with
      | Some (Json.Str "execute") -> Ok [ exec_of j ]
      | Some (Json.Str "batch") -> Ok (List.map exec_of (list "results" j))
      | _ -> Ok []
  with Failure msg | Json.Parse_error msg -> Error msg

let expect_ok line =
  match parse line with
  | Ok _ -> ()
  | Error e -> failwith ("set-up request failed: " ^ e)

(* Exact answers, from one "exact":true execute per query. *)
type exacts = (string * string list * string, float) Hashtbl.t

let add_exacts (tbl : exacts) ~handle line =
  expect_ok line;
  let j = Json.of_string line in
  let pair keys c = Hashtbl.replace tbl (handle, keys, str "label" c) (num "value" c) in
  List.iter
    (fun e ->
      match Json.member "keys" e with
      | Some _ -> List.iter (pair (keys_of e)) (list "cells" e)
      | None -> pair [] e)
    (list "exact" j)

let cells_of_result (r : Runner.result) =
  let cell keys (c : Runner.cell) =
    { keys; label = c.label; est = c.value; sd = c.stddev;
      lo = c.ci95_normal.lo; hi = c.ci95_normal.hi }
  in
  List.map (cell []) r.cells
  @ List.concat_map
      (fun (g : Runner.group_row) -> List.map (cell g.keys) g.group_cells)
      r.groups

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* One slice of the timed phase. *)
type window = { lat : Samples.t; mutable execs : int; secs : float }

type tally = {
  mutable attempted : int;
  mutable failed : int;  (** error replies, dropped connections, failed checks *)
  mutable execs : int;  (** execute items answered ok *)
  mutable cached : int;
  mutable rechecked : int;
  lat_ms : Samples.t;  (** execute/batch round trips *)
  windows : window array;  (** the same, per equal slice of the timed phase *)
  elapsed_ns : int;
  rel_ci : (string, Samples.t) Hashtbl.t;  (** per query *)
  seen : (string * int * string list * string, unit) Hashtbl.t;
  mutable covered : int;
  mutable cover_n : int;
  mutable problems : string list;  (** first few, most recent first *)
}

let tally ~windows ~elapsed_s =
  { attempted = 0; failed = 0; execs = 0; cached = 0;
    rechecked = 0; lat_ms = Samples.create ();
    windows =
      Array.init windows (fun _ ->
          { lat = Samples.create (); execs = 0; secs = elapsed_s /. float_of_int windows });
    elapsed_ns = max 1 (int_of_float (elapsed_s *. 1e9));
    rel_ci = Hashtbl.create 8;
    seen = Hashtbl.create 1024; covered = 0; cover_n = 0; problems = [] }

let per_query tbl handle =
  match Hashtbl.find_opt tbl handle with
  | Some s -> s
  | None ->
      let s = Samples.create () in
      Hashtbl.replace tbl handle s;
      s

let note t msg = if List.length t.problems < 5 then t.problems <- msg :: t.problems

(* Check one served execute item against the exact answers, and — when
   [rerun] is given — against an in-process re-execution.  Returns the
   problems found.

   Accuracy is tallied once per distinct estimate (query, seed, group,
   label): a cache hit repeats an estimate, it does not draw a new one,
   and on the Zipf workload the few hottest seeds would otherwise decide
   the coverage figure. *)
let check_exec (w : Workload.t) t ~(exacts : exacts) ~rerun (handle, seed) e =
  let problems = ref [] in
  let bad fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  if e.handle <> handle then bad "asked %s, answered %s" handle e.handle;
  let sampled =
    match List.find_opt (fun q -> q.Workload.qname = handle) w.queries with
    | Some q -> q.sampled
    | None -> true
  in
  List.iter
    (fun c ->
      match Hashtbl.find_opt exacts (handle, c.keys, c.label) with
      | None -> bad "%s/%s: no exact answer" handle c.label
      | Some exact when not sampled ->
          if not (same_bits c.est exact && c.sd = 0.) then
            bad "%s: sample-free estimate %.17g (sd %g) <> exact %.17g" handle
              c.est c.sd exact
      | Some _ when Hashtbl.mem t.seen (handle, seed, c.keys, c.label) -> ()
      | Some exact ->
          Hashtbl.replace t.seen (handle, seed, c.keys, c.label) ();
          if c.est <> 0. then
            Samples.add (per_query t.rel_ci handle)
              ((c.hi -. c.lo) /. 2. /. Float.abs c.est);
          t.cover_n <- t.cover_n + 1;
          if c.lo <= exact && exact <= c.hi then t.covered <- t.covered + 1)
    e.cells;
  (match rerun with
  | None -> ()
  | Some rerun ->
      t.rechecked <- t.rechecked + 1;
      let r = (rerun ~handle ~seed : Runner.response).rs_result in
      let mine = cells_of_result r in
      if
        r.n_sample_tuples <> e.n_tuples
        || List.length mine <> List.length e.cells
        || not
             (List.for_all2
                (fun a b -> a.keys = b.keys && same_bits a.est b.est)
                mine e.cells)
      then bad "%s seed %d: served estimate differs from in-process re-run" handle seed);
  !problems

let items_of = function
  | Workload.Execute { handle; seed } -> [ (handle, seed) ]
  | Workload.Batch items -> items
  | Workload.Register -> []

let check_reply (w : Workload.t) t ~seed ~exacts ~rerun ~conn ~idx ~lat_ns ~at_ns resp =
  t.attempted <- t.attempted + 1;
  let n = Array.length t.windows in
  let win = t.windows.(max 0 (min (n - 1) (at_ns * n / t.elapsed_ns))) in
  let req = w.request ~seed ~conn idx in
  let fail msg =
    t.failed <- t.failed + 1;
    note t msg
  in
  match resp with
  | None -> fail "connection dropped"
  | Some line -> (
      match parse line with
      | Error e -> fail e
      | Ok execs ->
          if req <> Workload.Register then begin
            Samples.add t.lat_ms (float_of_int lat_ns /. 1e6);
            Samples.add win.lat (float_of_int lat_ns /. 1e6)
          end;
          let items = items_of req in
          if List.length items <> List.length execs then
            fail "reply does not match the request"
          else begin
            let rerun =
              if Workload.checked ~seed ~conn idx then Some rerun else None
            in
            let problems =
              List.concat
                (List.map2
                   (fun item (e : exec) ->
                     t.execs <- t.execs + 1;
                     win.execs <- win.execs + 1;
                     if e.cached then t.cached <- t.cached + 1;
                     check_exec w t ~exacts ~rerun item e)
                   items execs)
            in
            if problems <> [] then fail (String.concat "; " problems)
          end)

(* [f window] over the windows that saw a reply, at the quartile on the
   good side: the 25th percentile for a lower-is-better figure, the 75th
   for a higher-is-better one.  Contention from other tenants of the host
   only ever slows a window down; this figure moves only when it slows
   more than three quarters of the run, while a change that slows every
   window moves it fully. *)
let window_quartile t ~better f =
  match
    Array.of_list
      (List.filter_map
         (fun w -> if Samples.length w.lat = 0 then None else Some (f w))
         (Array.to_list t.windows))
  with
  | [||] -> 0.
  | vs -> Stats.percentile vs (match better with `Lower -> 0.25 | `Higher -> 0.75)

let ok_frac t =
  1. -. (float_of_int t.failed /. float_of_int (max 1 t.attempted))

(* Mean over the sampled queries of each query's median relative CI
   half-width.  One median over all estimates would sit in the gap
   between two queries' clusters and jump between them from seed to
   seed. *)
let rel_ci_p50 t =
  let meds = Hashtbl.fold (fun _ s acc -> Samples.median s :: acc) t.rel_ci [] in
  List.fold_left ( +. ) 0. meds /. float_of_int (max 1 (List.length meds))

let cover_frac t = float_of_int t.covered /. float_of_int (max 1 t.cover_n)
