(* gusdb's benchmark program.

     perfbench --gusdb PATH --workload point|analytic|dashboard --seed N
               --seconds S --trace 0|1 [--repeat K] [--smoke]

   --trace 0 prints the end-to-end metrics of one run against an
   out-of-process `gusdb serve`; --trace 1 prints the per-layer metrics
   (an untraced out-of-process pass plus the in-process replays of
   Layers) and writes the Chrome trace and the per-layer table under
   _perfbench_out/.  The last stdout line is always one JSON object:
   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.

   --repeat K is the steadiness mode: K runs on seeds N .. N+K-1, then
   each metric's median, quartiles and quartile spread, flagged where an
   end-to-end spread exceeds its bound in BENCHMARK.json. *)

module W = Workload
module Json = Gus_service.Json

type result = {
  metrics : (string * string * float) list;  (** name, unit, value *)
  correct : bool;
  attempted : int;
  failed : int;
}

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    Sys.mkdir path 0o755
  end

let absolute p = if Filename.is_relative p then Filename.concat (Sys.getcwd ()) p else p

let print_table oc metrics =
  List.iter (fun (name, unit, v) -> Printf.fprintf oc "  %-28s %14.6g %s\n" name v unit) metrics

(* Relative to the working directory: the checkout root under run.sh. *)
let work_dir = "_perfbench_run" (* scratch, removed after each run *)
let out_dir = "_perfbench_out" (* traced runs' Chrome trace and table *)

let run_once ~gusdb ~(w : W.t) ~seed ~seconds ~trace =
  let dir =
    absolute (Filename.concat work_dir (Printf.sprintf "%s-%d-%d" w.name seed (Unix.getpid ())))
  in
  mkdir_p dir;
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      (* A traced run spends half its time out of process and the rest
         on the in-process replays. *)
      let seconds = if trace then seconds /. 2. else seconds in
      let env = { Run.gusdb; dir; seed; seconds; w } in
      Run.gen_data env;
      let o = Run.drive env ~reps:(if trace then 1 else w.setup_reps) in
      let t = o.tally in
      let metrics, extra_mismatches =
        if trace then begin
          mkdir_p out_dir;
          let prefix = Filename.concat out_dir (Printf.sprintf "%s-seed%d" w.name seed) in
          let metrics, mismatches = Layers.run env o ~out_prefix:prefix in
          Out_channel.with_open_text (prefix ^ ".layers.txt") (fun oc -> print_table oc metrics);
          Printf.printf "per-layer metrics (%s, seed %d; Chrome trace %s.trace.json):\n" w.name
            seed prefix;
          (metrics, mismatches)
        end
        else begin
          Printf.printf "%s seed %d: %d requests, %d executes (%d cached), %d re-run in process\n"
            w.name seed t.attempted t.execs t.cached t.rechecked;
          Printf.printf "  diagnostic: client p75/p95/p99 %.4f / %.4f / %.4f ms over %d samples\n"
            (Stats.Samples.percentile t.lat_ms 0.75) (Stats.Samples.percentile t.lat_ms 0.95)
            (Stats.Samples.percentile t.lat_ms 0.99) (Stats.Samples.length t.lat_ms);
          Printf.printf "  diagnostic: host reference loop %.2f ms before, %.2f ms after\n"
            (fst o.host_ref_ms) (snd o.host_ref_ms);
          Printf.printf "  diagnostic: per-window p50 ms:%s\n"
            (String.concat ""
               (Array.to_list
                  (Array.map
                     (fun (w : Check.window) ->
                       Printf.sprintf " %.4f" (Stats.Samples.median w.lat))
                     t.windows)));
          (Run.e2e_metrics o, 0)
        end
      in
      print_table stdout metrics;
      List.iter (fun p -> Printf.eprintf "perfbench: %s\n" p) (List.rev t.problems);
      if extra_mismatches > 0 then
        Printf.eprintf "perfbench: %d in-process executions differ from the engine's\n"
          extra_mismatches;
      { metrics;
        correct = t.failed = 0 && extra_mismatches = 0;
        attempted = t.attempted;
        failed = t.failed + extra_mismatches })

let result_json r =
  Json.to_string
    (Json.Obj
       [ ("correct", Json.Bool r.correct);
         ("attempted", Json.Num (float_of_int r.attempted));
         ("failed", Json.Num (float_of_int r.failed));
         ( "metrics",
           Json.Obj
             (List.map
                (fun (name, unit, v) ->
                  (name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str unit) ]))
                r.metrics) ) ])

(* End-to-end bounds, from the benchmark's own declaration. *)
let bounds path =
  match Json.of_string (In_channel.with_open_bin path In_channel.input_all) with
  | j ->
      Option.value ~default:[] (Option.bind (Json.member "end_to_end" j) Json.to_list)
      |> List.filter_map (fun m ->
             match
               ( Option.bind (Json.member "name" m) Json.to_str,
                 Option.bind (Json.member "bound" m) Json.to_num )
             with
             | Some n, Some b -> Some (n, b)
             | _ -> None)
  | exception (Sys_error _ | Json.Parse_error _) -> []

let steadiness ~bounds runs =
  Printf.printf "\nsteadiness over %d runs (spread = (q3 - q1) / median):\n" (List.length runs);
  Printf.printf "  %-28s %12s %12s %12s %8s %6s\n" "metric" "q1" "median" "q3" "spread" "bound";
  let steady = ref true in
  List.iter
    (fun (name, unit, _) ->
      let vs =
        Array.of_list
          (List.filter_map
             (fun r ->
               List.find_map (fun (n, _, v) -> if n = name then Some v else None) r.metrics)
             runs)
      in
      if Array.length vs >= 2 then begin
        let q = Stats.quartiles vs and spread = Stats.spread vs in
        let bound = List.assoc_opt name bounds in
        let flag =
          match bound with
          | Some b when name <> "setup_s" && spread > b ->
              steady := false;
              "  SPREAD EXCEEDS BOUND"
          | Some b when name <> "setup_s" && spread > b /. 3. -> "  above bound/3"
          | _ -> ""
        in
        Printf.printf "  %-28s %12.6g %12.6g %12.6g %8.4f %6s %s%s\n" name q.(0)
          (Stats.median vs) q.(2) spread
          (match bound with Some b -> Printf.sprintf "%g" b | None -> "-")
          unit flag
      end)
    (List.hd runs).metrics;
  !steady

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let gusdb = ref "" and repeat = ref 1 and smoke = ref false in
  let specs =
    [ ("--workload", Arg.Set_string workload, "NAME point | analytic | dashboard");
      ("--seed", Arg.Set_int seed, "N workload seed (data and request stream)");
      ("--seconds", Arg.Set_float seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics, or the per-layer traced run");
      ("--gusdb", Arg.Set_string gusdb, "PATH the gusdb binary under test");
      ("--repeat", Arg.Set_int repeat, "K steadiness mode: K runs on seeds N .. N+K-1");
      ("--smoke", Arg.Set smoke, " tiny data and replay sizes (tests)") ]
  in
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "perfbench [options]";
  let w =
    match W.find !workload with
    | Some w -> if !smoke then W.tiny w else w
    | None ->
        prerr_endline "perfbench: --workload must be one of point, analytic, dashboard";
        exit 2
  in
  if !gusdb = "" || not (Sys.file_exists !gusdb) then begin
    prerr_endline "perfbench: --gusdb must name the gusdb binary";
    exit 2
  end;
  (* No run may outlive its time limit, and no server may outlive the
     run: on expiry or a termination signal, kill the servers and fail
     without a result. *)
  let abort why =
    Sys.Signal_handle
      (fun _ ->
        Serverproc.kill_all ();
        prerr_endline ("perfbench: " ^ why ^ ", aborted");
        exit 3)
  in
  Sys.set_signal Sys.sigalrm (abort "run exceeded 175 s");
  Sys.set_signal Sys.sigterm (abort "terminated");
  Sys.set_signal Sys.sigint (abort "interrupted");
  let one seed =
    ignore (Unix.alarm 175);
    let r =
      try
        run_once ~gusdb:(absolute !gusdb) ~w ~seed
          ~seconds:!seconds ~trace:(!trace = 1)
      with e ->
        Serverproc.kill_all ();
        Printf.eprintf "perfbench: %s\n" (Printexc.to_string e);
        exit 1
    in
    ignore (Unix.alarm 0);
    r
  in
  if !repeat <= 1 then print_endline (result_json (one !seed))
  else begin
    let runs = List.init !repeat (fun k -> one (!seed + k)) in
    let steady = steadiness ~bounds:(bounds "BENCHMARK.json") runs in
    let all_correct = List.for_all (fun r -> r.correct) runs in
    print_endline
      (Json.to_string
         (Json.Obj
            [ ("steady", Json.Bool steady);
              ("correct", Json.Bool all_correct);
              ("runs", Json.Num (float_of_int !repeat)) ]))
  end
