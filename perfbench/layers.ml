(* The traced run's in-process half: the same seeded request stream
   (the first [replay] requests of each connection) re-driven against an
   in-process engine, three times over.

   - pass A, untraced: {!Gus_service.Session.handle} on each raw line,
     timed around the call, with GC counters read around it;
   - pass C, the same on a second engine with {!Gus_obs.Trace} recording,
     alternating with A in chunks — the ratio of the two is the tracing
     overhead;
   - pass L, traced: the request path taken apart at each layer's public
     entry point (Json decode, Engine execute / Scheduler batch, Wire
     render), with one span per call recorded from this file, plus a
     direct {!Gus_service.Prepared.execute} of every item (no cache) that
     must reproduce the engine's estimate bit for bit.

   Spans live in memory and are exported as one Chrome trace when pass L
   ends. *)

module W = Workload
module Json = Gus_service.Json
module Wire = Gus_service.Wire
module Engine = Gus_service.Engine
module Session = Gus_service.Session
module Catalog = Gus_service.Catalog
module Prepared = Gus_service.Prepared
module Trace = Gus_obs.Trace
module Samples = Stats.Samples

let now_ns = Serverproc.now_ns

(* The replayed prefix, connections interleaved round robin as the OOP
   run's poll loop would see them on an even server. *)
let stream (w : W.t) ~seed ~register =
  Array.init (w.replay * w.clients) (fun k ->
      let conn = k mod w.clients and i = k / w.clients in
      let req = w.request ~seed ~conn i in
      (conn, req, W.line ~register req))

(* A fresh in-process engine configured like the server's: the default
   128-entry cache, the shared domain pool, and a journal sink when the
   workload serves with one.  Returns the engine and its closer. *)
let open_engine (env : Run.env) ~tag =
  let sink =
    if env.w.journal then
      Some (open_out (Filename.concat env.dir ("journal-" ^ tag ^ ".ndjson")))
    else None
  in
  let journal = Option.map (fun sink -> Gus_obs.Journal.create ~sink ()) sink in
  ( Engine.create ~pool:(Gus_util.Pool.default ()) ?journal (),
    fun () -> Option.iter close_out sink )

type session_pass = {
  sessions : Session.t array;
  close : unit -> unit;
  handle_us : Samples.t;
  mutable total_ns : int;
  mutable execs : int;
  mutable minor_words : float;
  mutable majors : int;
}

(* Register and prepare exactly as a client would, untimed. *)
let open_sessions (env : Run.env) ~tag =
  let engine, close = open_engine env ~tag in
  let sessions = Array.init env.w.clients (fun _ -> Session.create engine) in
  let send s line = Option.iter Check.expect_ok (Session.handle s line) in
  send sessions.(0) (W.register_line (Run.source env));
  Array.iter (fun s -> List.iter (fun q -> send s (W.prepare_line q)) env.w.queries) sessions;
  { sessions; close; handle_us = Samples.create (); total_ns = 0; execs = 0;
    minor_words = 0.; majors = 0 }

let session_step sp (conn, req, line) =
  let t0 = now_ns () in
  let r = Session.handle sp.sessions.(conn) line in
  let dt = now_ns () - t0 in
  sp.total_ns <- sp.total_ns + dt;
  (match r with
  | Some r when String.starts_with ~prefix:{|{"ok":true|} r -> ()
  | _ -> failwith ("in-process request failed: " ^ line));
  if req <> W.Register then begin
    Samples.add sp.handle_us (float_of_int dt /. 1e3);
    sp.execs <- sp.execs + List.length (Check.items_of req)
  end

(* Passes A (untraced) and C (traced) over the same stream on two
   engines, alternating in chunks so both see the same host speed; GC
   counters are read around A's chunks only. *)
let session_passes (env : Run.env) items =
  let a = open_sessions env ~tag:"a" and c = open_sessions env ~tag:"c" in
  Fun.protect
    ~finally:(fun () ->
      Trace.set_enabled false;
      List.iter (fun sp -> Array.iter Session.close sp.sessions; sp.close ()) [ a; c ])
    (fun () ->
      let n = Array.length items and chunk = 64 in
      let lo = ref 0 in
      while !lo < n do
        let hi = min n (!lo + chunk) in
        let gc0 = Gc.quick_stat () in
        for k = !lo to hi - 1 do
          session_step a items.(k)
        done;
        let gc1 = Gc.quick_stat () in
        a.minor_words <- a.minor_words +. (gc1.minor_words -. gc0.minor_words);
        a.majors <- a.majors + (gc1.major_collections - gc0.major_collections);
        Trace.set_enabled true;
        for k = !lo to hi - 1 do
          session_step c items.(k)
        done;
        Trace.set_enabled false;
        lo := hi
      done;
      (a, c))

type layer_pass = {
  timers : (string, Samples.t) Hashtbl.t;
  mutable item_wall_ns : int;  (** Σ batch-item execution, on pool lanes *)
  mutable batch_wall_ns : int;
  mutable tuples : int;
  mutable direct : int;  (** direct Prepared.execute calls *)
  mutable mismatches : int;
}

let record p name v =
  let s =
    match Hashtbl.find_opt p.timers name with
    | Some s -> s
    | None ->
        let s = Samples.create () in
        Hashtbl.replace p.timers name s;
        s
  in
  Samples.add s v

(* [f] inside a span; its duration (µs, or ms with [~ms:true]) goes to
   the [name] timer. *)
let timed ?(ms = false) p name f =
  Trace.span name (fun () ->
      let t0 = now_ns () in
      let r = f () in
      record p name (float_of_int (now_ns () - t0) /. if ms then 1e6 else 1e3);
      r)

let source_of_kind (env : Run.env) kind =
  W.source_spec { env.w with source = kind } ~seed:env.seed ~dir:env.dir

let layer_pass (env : Run.env) items =
  let p =
    { timers = Hashtbl.create 32; item_wall_ns = 0; batch_wall_ns = 0; tuples = 0;
      direct = 0; mismatches = 0 }
  in
  (* Catalog.load once per source kind, three times each. *)
  let scratch = Catalog.create () in
  List.iter
    (fun kind ->
      let name = "catalog.load_ms." ^ W.source_kind_name kind in
      for _ = 1 to 3 do
        ignore
          (timed ~ms:true p name (fun () ->
               Catalog.load scratch ~name:"probe" ~source:(source_of_kind env kind)))
      done)
    [ W.Tpch; W.Csv; W.Snapshot ];
  ignore (Catalog.remove scratch "probe");
  let engine, close = open_engine env ~tag:"l" in
  Fun.protect ~finally:close @@ fun () ->
  let catalog = Engine.catalog engine in
  ignore (Engine.register engine ~name:W.dataset ~source:(Run.source env));
  let prepare q = timed p "runner.prepare" (fun () -> Prepared.prepare catalog ~dataset:W.dataset q.W.sql) in
  let tables =
    Array.init env.w.clients (fun _ ->
        List.map
          (fun q ->
            for _ = 1 to 4 do
              ignore (prepare q)
            done;
            (q.W.qname, prepare q))
          env.w.queries)
  in
  let engine_call f =
    Trace.span "engine.execute_prepared" (fun () ->
        let t0 = now_ns () in
        let (o : Engine.outcome) = f () in
        record p (if o.cached then "engine.hit" else "engine.miss")
          (float_of_int (now_ns () - t0) /. 1e3);
        o)
  in
  (* The uncached execution, outside the request span; it must agree with
     what the engine served. *)
  let direct handle prep ov (served : Engine.outcome) =
    let r =
      timed p "prepared.execute" (fun () ->
          let t0 = now_ns () in
          let r = Prepared.execute catalog prep ov in
          record p ("exec.us." ^ handle) (float_of_int (now_ns () - t0) /. 1e3);
          r)
    in
    p.direct <- p.direct + 1;
    p.tuples <- p.tuples + r.rs_result.n_sample_tuples;
    let a = Check.cells_of_result r.rs_result
    and b = Check.cells_of_result served.response.rs_result in
    if
      List.length a <> List.length b
      || not (List.for_all2 (fun x y -> Check.same_bits x.Check.est y.Check.est) a b)
    then p.mismatches <- p.mismatches + 1
  in
  let overrides item =
    ( Wire.req_str item "handle",
      { Prepared.default_overrides with seed = Wire.opt_int item "seed" ~default:42 } )
  in
  Array.iter
    (fun (conn, _, line) ->
      let table = tables.(conn) in
      let after =
        timed p "request" (fun () ->
            let j = timed p "json.decode" (fun () -> Json.of_string line) in
            match Wire.req_str j "op" with
            | "execute" ->
                let handle, ov = overrides j in
                let prep = List.assoc handle table in
                let o =
                  engine_call (fun () ->
                      Engine.execute_prepared engine ~label:handle prep ov)
                in
                ignore
                  (timed p "wire.render" (fun () ->
                       Json.to_string (Wire.response_json ~handle o)));
                [ (handle, prep, ov, o) ]
            | "batch" ->
                let items =
                  List.map
                    (fun it ->
                      let handle, ov = overrides it in
                      (handle, List.assoc handle table, ov))
                    (Option.value ~default:[] (Option.bind (Json.member "items" j) Json.to_list))
                in
                let t0 = now_ns () in
                let outs =
                  timed p "scheduler.batch" (fun () ->
                      Engine.batch_prepared engine
                        (Array.of_list (List.map (fun (h, prep, ov) -> (h, Some prep, ov)) items)))
                in
                p.batch_wall_ns <- p.batch_wall_ns + (now_ns () - t0);
                let outs =
                  Array.to_list
                    (Array.map (function Ok o -> o | Error e -> raise e) outs)
                in
                List.iter
                  (fun (o : Engine.outcome) ->
                    p.item_wall_ns <- p.item_wall_ns + o.wall_ns;
                    if not o.cached then record p "engine.miss" (float_of_int o.wall_ns /. 1e3))
                  outs;
                ignore
                  (timed p "wire.render" (fun () ->
                       Json.to_string
                         (Json.Obj
                            [ ("ok", Json.Bool true);
                              ("op", Json.Str "batch");
                              ( "results",
                                Json.List
                                  (List.map2
                                     (fun (handle, _, _) o -> Wire.response_json ~handle o)
                                     items outs) ) ])));
                List.map2 (fun (h, prep, ov) o -> (h, prep, ov, o)) items outs
            | "register" ->
                ignore
                  (timed p "catalog.register" (fun () ->
                       Engine.register engine ~name:W.dataset ~source:(Wire.source_of_request j)));
                []
            | op -> failwith ("unexpected op in stream: " ^ op))
      in
      List.iter (fun (h, prep, ov, o) -> direct h prep ov o) after)
    items;
  p

let median p name =
  match Hashtbl.find_opt p.timers name with Some s -> Samples.median s | None -> 0.

let write_file path contents =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc contents)

(* All per-layer metrics, from the OOP outcome [o] and the three passes. *)
let run (env : Run.env) (o : Run.outcome) ~out_prefix =
  let items = stream env.w ~seed:env.seed ~register:(W.register_line (Run.source env)) in
  Trace.clear ();
  let a, c = session_passes env items in
  Trace.clear ();
  Trace.set_enabled true;
  let l = Fun.protect ~finally:(fun () -> Trace.set_enabled false) (fun () -> layer_pass env items) in
  write_file (out_prefix ^ ".trace.json") (Trace.export_json ());
  Trace.clear ();
  let t = o.tally in
  let delta name = Run.counter o.after name -. Run.counter o.before name in
  let hits = delta "cache.hits" and misses = delta "cache.misses" in
  let session_us = Samples.median a.handle_us in
  let miss_us = median l "engine.miss" and exec_us = median l "prepared.execute" in
  let per_exec v = v /. float_of_int (max 1 a.execs) in
  let metrics =
    [ ("json.decode_us", "us", median l "json.decode");
      ("wire.render_us", "us", median l "wire.render");
      ("session.handle_us", "us", session_us);
      ("transport.rtt_overhead_us", "us", (Samples.median t.lat_ms *. 1e3) -. session_us);
      ("server.dispatch_p50_us", "us", o.after.dispatch_p50_us);
      ("engine.hit_us", "us", median l "engine.hit");
      ("engine.miss_us", "us", miss_us);
      ("engine.overhead_us", "us", if miss_us = 0. then 0. else miss_us -. exec_us);
      ("prepared.execute_us", "us", exec_us) ]
    @ List.map
        (fun i ->
          let q = Printf.sprintf "q%d" i in
          ("exec.us." ^ q, "us", median l ("exec.us." ^ q)))
        [ 1; 2; 3; 4; 5; 6 ]
    @ [ ( "exec.sample_tuples", "tuples/exec",
          float_of_int l.tuples /. float_of_int (max 1 l.direct) );
        ("scheduler.batch_us", "us", median l "scheduler.batch");
        ( "scheduler.parallel_x", "ratio",
          if l.batch_wall_ns = 0 then 0.
          else float_of_int l.item_wall_ns /. float_of_int l.batch_wall_ns );
        ("runner.prepare_us", "us", median l "runner.prepare");
        ("catalog.load_ms.tpch", "ms", median l "catalog.load_ms.tpch");
        ("catalog.load_ms.csv", "ms", median l "catalog.load_ms.csv");
        ("catalog.load_ms.snapshot", "ms", median l "catalog.load_ms.snapshot");
        ("cache.hit_frac", "ratio", if hits +. misses = 0. then 0. else hits /. (hits +. misses));
        ("cache.evictions", "count", delta "cache.evictions");
        ("prepared.reprepares", "count", delta "service.repreparations");
        ("admission.rejected", "count", delta "shed.rejected");
        ( "journal.bytes_per_exec", "B/exec",
          float_of_int o.journal_bytes /. float_of_int (max 1 t.execs) );
        ("gc.minor_mb_per_exec", "MB/exec", per_exec (a.minor_words *. 8. /. 1e6));
        ("gc.major_per_kexec", "1/kexec", per_exec (float_of_int a.majors *. 1e3));
        ("client.p99_ms", "ms", Samples.percentile t.lat_ms 0.99);
        ("client.samples", "count", float_of_int (Samples.length t.lat_ms));
        ( "trace.overhead_frac", "ratio",
          (float_of_int c.total_ns /. float_of_int (max 1 a.total_ns)) -. 1. ) ]
  in
  (metrics, l.mismatches)
