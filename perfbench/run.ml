(* One pass against an out-of-process `gusdb serve`: generate the data,
   set the server up [setup_reps] times (timing each), then drive the
   seeded request stream closed-loop for the timed phase and check every
   reply. *)

module W = Workload
module Json = Gus_service.Json
module Catalog = Gus_service.Catalog
module Prepared = Gus_service.Prepared
module Samples = Stats.Samples

let now_ns = Serverproc.now_ns

type env = {
  gusdb : string;
  dir : string;  (** this run's scratch directory (absolute) *)
  seed : int;
  seconds : float;
  w : W.t;
}

let journal_path env = Filename.concat env.dir "journal.ndjson"
let source env = W.source_spec env.w ~seed:env.seed ~dir:env.dir

let run_gusdb env args =
  let null = Serverproc.dev_null () in
  let pid =
    Unix.create_process env.gusdb (Array.of_list (env.gusdb :: args)) null null
      Unix.stderr
  in
  Unix.close null;
  match Serverproc.restart (fun () -> Unix.waitpid [] pid) with
  | _, Unix.WEXITED 0 -> ()
  | _ -> failwith ("gusdb " ^ String.concat " " args ^ " failed")

(* Every run writes the workload's data in all three source forms — the
   traced run times each loader — from `gusdb gen --seed`. *)
let gen_data env =
  let csv = Filename.concat env.dir "csv" in
  let scale = Printf.sprintf "%g" env.w.scale in
  run_gusdb env [ "gen"; "-s"; scale; "--seed"; string_of_int env.seed; "-o"; csv ];
  run_gusdb env
    [ "snapshot"; "-s"; scale; "-d"; csv; "-o"; Filename.concat env.dir "data.snap" ]

type server_stats = { counters : (string * float) list; dispatch_p50_us : float }

let stats_line = {|{"op":"stats"}|}

let stats_of line =
  let j = Json.of_string line in
  let get path =
    List.fold_left (fun acc k -> Option.bind acc (Json.member k)) (Some j) path
  in
  { counters =
      (match Option.bind (get [ "metrics"; "counters" ]) Json.to_obj with
      | Some fields ->
          List.filter_map (fun (k, v) -> Option.map (fun n -> (k, n)) (Json.to_num v)) fields
      | None -> failwith "stats reply lacks metrics.counters");
    dispatch_p50_us =
      Option.value ~default:0. (Option.bind (get [ "latency_us"; "p50" ]) Json.to_num) }

let counter s name = Option.value ~default:0. (List.assoc_opt name s.counters)

(* Spawn, register the dataset on connection 0, prepare every query on
   every connection: the interval [setup_s] measures. *)
let setup env =
  let w = env.w in
  let t0 = now_ns () in
  let srv =
    Serverproc.spawn ~gusdb:env.gusdb ~tcp:(w.transport = W.Tcp) ~clients:w.clients
      ~journal:(if w.journal then Some (journal_path env) else None)
  in
  match
    Check.expect_ok (Serverproc.request srv.conns.(0) (W.register_line (source env)));
    Array.iter
      (fun c ->
        List.iter (fun q -> Check.expect_ok (Serverproc.request c (W.prepare_line q))) w.queries)
      srv.conns
  with
  | () -> (srv, float_of_int (now_ns () - t0) /. 1e9)
  | exception e ->
      Serverproc.stop srv;
      raise e

(* In-process re-execution for the bit-for-bit check, against a catalog
   loaded from the same source; built on first use. *)
let rerun env =
  let catalog =
    lazy
      (let c = Catalog.create () in
       ignore (Catalog.load c ~name:W.dataset ~source:(source env));
       c)
  in
  let prepared = Hashtbl.create 8 in
  fun ~handle ~seed ->
    let c = Lazy.force catalog in
    let p =
      match Hashtbl.find_opt prepared handle with
      | Some p -> p
      | None ->
          let q = List.find (fun q -> q.W.qname = handle) env.w.queries in
          let p = Prepared.prepare c ~dataset:W.dataset q.sql in
          Hashtbl.replace prepared handle p;
          p
    in
    Prepared.execute c p { Prepared.default_overrides with seed }

type outcome = {
  setup_s : float list;
  tally : Check.tally;
  before : server_stats;
  after : server_stats;
  rss_mb : float;
  journal_bytes : int;  (** written during the timed phase *)
  host_ref_ms : float * float;  (** {!host_ref_ms} before and after *)
}

(* A fixed integer loop, timed before and after the timed phase and
   printed beside the metrics, so a reader can tell host-speed drift from
   a change in the program. *)
let host_ref_ms () =
  let t0 = now_ns () in
  let x = ref 1 in
  for _ = 1 to 20_000_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff
  done;
  ignore (Sys.opaque_identity !x);
  float_of_int (now_ns () - t0) /. 1e6

(* The timed phase is cut into up to 10 equal windows of at least 100
   replies each; each timing metric is read per window (see
   {!Check.window_quartile}). *)
let windows_for replies = max 1 (min 10 (replies / 100))

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

let drive env ~reps =
  let rec setups k acc =
    let srv, s = setup env in
    if k <= 1 then (srv, List.rev (s :: acc))
    else begin
      Serverproc.stop srv;
      setups (k - 1) (s :: acc)
    end
  in
  (* Half the set-ups run before the timed phase and half after, so one
     burst of host contention cannot set the median. *)
  let srv, setup_before = setups ((reps + 1) / 2) [] in
  let exacts = Hashtbl.create 64 in
  let ref0 = host_ref_ms () in
  let replies, elapsed_s, before, after, rss_mb, journal_bytes =
    Fun.protect
      ~finally:(fun () -> Serverproc.stop srv)
      (fun () ->
        let c0 = srv.conns.(0) in
        List.iter
          (fun q ->
            Check.add_exacts exacts ~handle:q.W.qname
              (Serverproc.request c0 (W.exact_line q)))
          env.w.queries;
        let before = stats_of (Serverproc.request c0 stats_line) in
        let j0 = file_size (journal_path env) in
        let register = W.register_line (source env) in
        let t0 = now_ns () in
        let replies, elapsed_ns =
          Serverproc.closed_loop srv ~start_ns:t0
            ~until_ns:(t0 + int_of_float (env.seconds *. 1e9))
            ~line:(fun conn i -> W.line ~register (env.w.request ~seed:env.seed ~conn i))
        in
        let after = stats_of (Serverproc.request c0 stats_line) in
        ( replies,
          float_of_int elapsed_ns /. 1e9,
          before,
          after,
          Serverproc.peak_rss_mb srv,
          file_size (journal_path env) - j0 ))
  in
  let setup_after =
    List.init (reps / 2) (fun _ ->
        let srv, s = setup env in
        Serverproc.stop srv;
        s)
  in
  let setup_s = setup_before @ setup_after in
  let ref1 = host_ref_ms () in
  let tally = Check.tally ~windows:(windows_for replies.Serverproc.n) ~elapsed_s in
  let rerun = rerun env in
  Serverproc.iter_replies replies (Check.check_reply env.w tally ~seed:env.seed ~exacts ~rerun);
  { setup_s; tally; before; after; rss_mb; journal_bytes;
    host_ref_ms = (ref0, ref1) }

let e2e_metrics o =
  let t = o.tally in
  [ ("setup_s", "s", Stats.median (Array.of_list o.setup_s));
    ("p50_ms", "ms", Check.window_quartile t ~better:`Lower (fun w -> Samples.median w.Check.lat));
    ( "p90_ms", "ms",
      Check.window_quartile t ~better:`Lower (fun w -> Samples.percentile w.Check.lat 0.9) );
    ( "exec_qps", "exec/s",
      Check.window_quartile t ~better:`Higher (fun w -> float_of_int w.Check.execs /. w.secs) );
    ("ok_frac", "ratio", Check.ok_frac t);
    ("rel_ci_p50", "ratio", Check.rel_ci_p50 t);
    ("ci_cover_frac", "ratio", Check.cover_frac t);
    ("server_rss_mb", "MB", o.rss_mb) ]
