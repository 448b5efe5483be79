(* Tests of the benchmark itself.  The smoke and data tests run the gusdb
   and perfbench binaries named by PERFBENCH_GUSDB / PERFBENCH_EXE, with
   the metric declarations from PERFBENCH_JSON (see dune). *)

module W = Workload
module Json = Gus_service.Json

let close = Alcotest.float 1e-12
let floats = Alcotest.(array (float 1e-12))

let test_percentile () =
  let a = [| 5.; 1.; 4.; 2.; 3. |] in
  Alcotest.check close "median" 3. (Stats.median a);
  Alcotest.check close "p0" 1. (Stats.percentile a 0.);
  Alcotest.check close "p100" 5. (Stats.percentile a 1.);
  Alcotest.check close "p25 on a rank" 2. (Stats.percentile a 0.25);
  Alcotest.check close "p90 between ranks" 4.6 (Stats.percentile a 0.9);
  Alcotest.check close "even median" 2.5 (Stats.median [| 4.; 1.; 3.; 2. |]);
  let s = Stats.Samples.create () in
  Alcotest.check close "empty buffer reads 0" 0. (Stats.Samples.median s);
  for i = 2000 downto 1 do
    Stats.Samples.add s (float_of_int i)
  done;
  Alcotest.check close "growable buffer" 1800.1 (Stats.Samples.percentile s 0.9)

(* Expected values are Python's statistics.quantiles(data, n=4). *)
let test_quartiles () =
  Alcotest.check floats "1..10" [| 2.75; 5.5; 8.25 |]
    (Stats.quartiles (Array.init 10 (fun i -> float_of_int (i + 1))));
  Alcotest.check floats "unsorted four" [| 1.4375; 2.75; 7.625 |]
    (Stats.quartiles [| 3.5; 1.25; 9.0; 2.0 |]);
  Alcotest.check floats "two samples extrapolate" [| 0.; 3.; 6. |]
    (Stats.quartiles [| 5.; 1. |]);
  let runs = [| 0.9; 1.1; 1.0; 1.3; 0.95; 1.05; 1.2; 0.85; 1.15; 1.0 |] in
  Alcotest.check floats "ten runs" [| 0.9374999999999999; 1.025; 1.1624999999999999 |]
    (Stats.quartiles runs);
  Alcotest.check close "spread" ((1.1624999999999999 -. 0.9374999999999999) /. 1.025)
    (Stats.spread runs)

let lines (w : W.t) ~seed =
  List.init w.clients (fun conn ->
      List.init 3000 (fun i -> W.line ~register:"REGISTER" (w.request ~seed ~conn i)))

let test_streams () =
  List.iter
    (fun (w : W.t) ->
      let a = lines w ~seed:7 in
      Alcotest.(check (list (list string))) (w.name ^ ": same seed, same lines") a (lines w ~seed:7);
      Alcotest.(check bool) (w.name ^ ": another seed, other lines") true (a <> lines w ~seed:8))
    W.all;
  let registers conn =
    List.length
      (List.filter (( = ) W.Register)
         (List.init 4000 (fun i -> W.dashboard.request ~seed:3 ~conn i)))
  in
  Alcotest.(check (list int)) "one register in 2000 per connection" [ 2; 2 ]
    [ registers 0; registers 1 ]

let read_file path = In_channel.with_open_bin path In_channel.input_all

let test_data_files () =
  let gusdb = Sys.getenv "PERFBENCH_GUSDB" in
  let gen name =
    let dir = Filename.concat (Sys.getcwd ()) name in
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    Run.gen_data { Run.gusdb; dir; seed = 5; seconds = 0.; w = W.tiny W.dashboard };
    dir
  in
  let a = gen "gen-a" and b = gen "gen-b" in
  let files =
    "data.snap"
    :: List.map (Filename.concat "csv")
         (List.sort compare (Array.to_list (Sys.readdir (Filename.concat a "csv"))))
  in
  Alcotest.(check int) "five CSVs and a snapshot" 6 (List.length files);
  List.iter
    (fun f ->
      Alcotest.(check bool) (f ^ " byte-identical") true
        (read_file (Filename.concat a f) = read_file (Filename.concat b f)))
    files

let test_cache_model () =
  List.iter
    (fun seed ->
      let hit = W.lru_hit_frac W.dashboard ~seed ~capacity:128 ~per_conn:20000 in
      Alcotest.(check bool)
        (Printf.sprintf "dashboard seed %d: LRU hit fraction %.3f in [0.2, 0.8]" seed hit)
        true
        (hit >= 0.2 && hit <= 0.8))
    [ 1; 2; 3 ];
  List.iter
    (fun (w : W.t) ->
      Alcotest.check close (w.name ^ " never hits") 0.
        (W.lru_hit_frac w ~seed:1 ~capacity:128 ~per_conn:5000))
    [ W.point; W.analytic ]

let declared section =
  let j = Json.of_string (read_file (Sys.getenv "PERFBENCH_JSON")) in
  Option.value ~default:[] (Option.bind (Json.member section j) Json.to_list)

let str field j = Option.value ~default:"" (Option.bind (Json.member field j) Json.to_str)

let test_declared_workloads () =
  Alcotest.(check (list (pair string string)))
    "BENCHMARK.json workloads are the program's"
    (List.map (fun (w : W.t) -> (w.name, w.why)) W.all)
    (List.map (fun j -> (str "name" j, str "why" j)) (declared "workloads"))

(* Run the benchmark binary; its last stdout line is the result object. *)
let run_bench args =
  let exe = Sys.getenv "PERFBENCH_EXE" in
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let out = In_channel.input_all ic in
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | _ -> Alcotest.failf "perfbench %s failed:\n%s" (String.concat " " args) out);
  let last =
    List.fold_left (fun acc l -> if String.trim l = "" then acc else l)
      "" (String.split_on_char '\n' out)
  in
  Json.of_string last

let smoke (w : W.t) ~trace () =
  let r =
    run_bench
      [ "--gusdb"; Sys.getenv "PERFBENCH_GUSDB"; "--workload"; w.name; "--seed"; "3";
        "--seconds"; "0.4"; "--trace"; string_of_int trace; "--smoke" ]
  in
  let num f = Option.bind (Json.member f r) Json.to_num in
  Alcotest.(check (option bool)) "correct" (Some true) (Option.bind (Json.member "correct" r) Json.to_bool);
  Alcotest.(check (option (float 0.))) "failed" (Some 0.) (num "failed");
  Alcotest.(check bool) "attempted" true (Option.value ~default:0. (num "attempted") >= 1.);
  let metrics = Option.value ~default:[] (Option.bind (Json.member "metrics" r) Json.to_obj) in
  let printed =
    List.map (fun (name, m) -> (name, str "unit" m)) metrics |> List.sort compare
  in
  let expected =
    List.map (fun j -> (str "name" j, str "unit" j))
      (declared (if trace = 0 then "end_to_end" else "per_layer"))
    |> List.sort compare
  in
  Alcotest.(check (list (pair string string))) "every declared metric, with its unit"
    expected printed;
  List.iter
    (fun (name, m) ->
      match Option.bind (Json.member "value" m) Json.to_num with
      | Some v when Float.is_finite v -> ()
      | _ -> Alcotest.failf "%s: no finite value" name)
    metrics;
  if trace = 1 then begin
    let v name =
      Option.bind (List.assoc_opt name metrics) (fun m -> Option.bind (Json.member "value" m) Json.to_num)
    in
    if w.name <> "dashboard" then
      Alcotest.(check (option (float 0.))) "cache.hit_frac" (Some 0.) (v "cache.hit_frac");
    Alcotest.(check bool) "Chrome trace written" true
      (Sys.file_exists (Printf.sprintf "_perfbench_out/%s-seed3.trace.json" w.name))
  end

let () =
  Alcotest.run "perfbench"
    [ ( "stats",
        [ Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "quartiles match Python" `Quick test_quartiles ] );
      ( "generation",
        [ Alcotest.test_case "request streams are seeded" `Quick test_streams;
          Alcotest.test_case "data files are seeded" `Quick test_data_files;
          Alcotest.test_case "dashboard LRU model" `Quick test_cache_model;
          Alcotest.test_case "declared workloads" `Quick test_declared_workloads ] );
      ( "smoke",
        List.concat_map
          (fun (w : W.t) ->
            [ Alcotest.test_case (w.name ^ " e2e") `Quick (smoke w ~trace:0);
              Alcotest.test_case (w.name ^ " traced") `Quick (smoke w ~trace:1) ])
          W.all ) ]
