(* The three traffic mixes and their seeded request streams.

   Everything a run sends is a pure function of the workload seed: the
   data files come from `gusdb gen --seed` (and `gusdb snapshot`), and
   request [i] of connection [c] is derived from the seed by SplitMix64
   stream splitting, so the same seed always yields byte-identical
   request lines no matter how far a run gets.  The server sees only
   these files and lines. *)

module Rng = Gus_util.Rng
module Json = Gus_service.Json
module Catalog = Gus_service.Catalog

type transport = Stdio | Tcp
type source_kind = Tpch | Csv | Snapshot

let source_kind_name = function
  | Tpch -> "tpch"
  | Csv -> "csv"
  | Snapshot -> "snapshot"

type query = {
  qname : string;  (** the prepared handle's name, also the metric suffix *)
  sql : string;
  sampled : bool;  (** [false]: the estimate must equal the exact answer *)
}

type request =
  | Execute of { handle : string; seed : int }
  | Batch of (string * int) list  (** [(handle, seed)] per item *)
  | Register  (** re-register the workload's own dataset *)

type t = {
  name : string;
  why : string;
  scale : float;
  source : source_kind;
  transport : transport;
  clients : int;
  journal : bool;  (** serve with [--journal] *)
  queries : query list;
  request : seed:int -> conn:int -> int -> request;
  setup_reps : int;  (** set-ups per e2e run; [setup_s] is their median *)
  replay : int;  (** requests per connection the traced run re-drives *)
}

let dataset = "tpch"

(* Seeds stay below 2^53 so they survive the protocol's JSON numbers. *)
let seed_base seed = (abs seed mod 1_000_000) * 10_000_000

(* One independent generator per (stream, connection, index). *)
let rng ~stream ~seed ~conn i =
  Rng.derive (Rng.derive (Rng.create ((seed * 8) + stream)) conn) i

let q qname ?(sampled = true) sql = { qname; sql; sampled }

(* Each workload's sampled queries cost about the same, so the latency
   distribution has one body rather than one cluster per query: a
   percentile that falls between two clusters jumps between them from run
   to run. *)
let point_queries =
  [ q "q1" "SELECT SUM(l_quantity) AS qty FROM lineitem TABLESAMPLE (20 PERCENT)";
    q "q2"
      "SELECT COUNT(*) AS n FROM lineitem TABLESAMPLE (30 PERCENT) WHERE \
       l_quantity > 25";
    q "q3" "SELECT SUM(l_discount) AS d FROM lineitem TABLESAMPLE (20 PERCENT)";
    q "q4" "SELECT COUNT(*) AS n FROM lineitem TABLESAMPLE (15 PERCENT)" ]

let analytic_queries =
  [ q "q1"
      "SELECT SUM(l_extendedprice) AS rev FROM lineitem TABLESAMPLE (20 \
       PERCENT), orders WHERE l_orderkey = o_orderkey AND o_orderpriority = \
       '1-URGENT'";
    q "q2"
      "SELECT COUNT(*) AS n FROM lineitem TABLESAMPLE (30 PERCENT), orders \
       TABLESAMPLE (30 PERCENT) WHERE l_orderkey = o_orderkey";
    q "q3"
      "SELECT AVG(l_extendedprice) AS avg_price FROM lineitem TABLESAMPLE (50 \
       PERCENT) GROUP BY l_returnflag";
    q "q4"
      "SELECT SUM(l_quantity) AS qty FROM lineitem TABLESAMPLE (10 PERCENT) \
       WHERE l_discount >= 0.05" ]

let dashboard_queries =
  [ q "q1" "SELECT SUM(o_totalprice) AS t FROM orders TABLESAMPLE (10 PERCENT)";
    q "q2" "SELECT COUNT(*) AS n FROM orders TABLESAMPLE (10 PERCENT)";
    q "q3"
      "SELECT COUNT(*) AS n FROM orders TABLESAMPLE (20 PERCENT) WHERE \
       o_orderpriority = '1-URGENT'";
    q "q4"
      "SELECT SUM(o_totalprice) AS t FROM orders TABLESAMPLE (15 PERCENT) WHERE \
       o_orderdate < 1800";
    q "q5" "SELECT SUM(c_acctbal) AS b FROM customer TABLESAMPLE (30 PERCENT)";
    q "q6" ~sampled:false "SELECT SUM(s_acctbal) AS bal FROM supplier" ]

let pick r l = List.nth l (Rng.int r (List.length l))

(* Every execute carries a seed no earlier request used: the cache never
   hits, so each request pays the full parse → execute → render path. *)
let point_request ~seed ~conn i =
  let r = rng ~stream:0 ~seed ~conn i in
  Execute { handle = (pick r point_queries).qname; seed = seed_base seed + i + 1 }

let analytic_request ~seed ~conn:_ i =
  Batch
    (List.map (fun q -> (q.qname, seed_base seed + i + 1)) analytic_queries)

(* Zipf(1.0) over [zipf_ranks] seeds per panel; 6 panels × 256 seeds is a
   working set well beyond the 128-entry response cache. *)
let zipf_ranks = 256

let zipf_cdf =
  let w = Array.init zipf_ranks (fun k -> 1. /. float_of_int (k + 1)) in
  let total = Array.fold_left ( +. ) 0. w in
  let acc = ref 0. in
  Array.map
    (fun x ->
      acc := !acc +. x;
      !acc /. total)
    w

let zipf r =
  let u = Rng.float r in
  let rec find lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if zipf_cdf.(mid) > u then find lo mid else find (mid + 1) hi
  in
  find 0 (zipf_ranks - 1)

let register_every = 2000

(* One request in [register_every] of each connection's stream is the
   "write"; the two connections take theirs half a period apart. *)
let dashboard_request ~seed ~conn i =
  if (i + 1 + (conn * (register_every / 2))) mod register_every = 0 then Register
  else
    let r = rng ~stream:1 ~seed ~conn i in
    let handle = (pick r dashboard_queries).qname in
    Execute { handle; seed = seed_base seed + zipf r }

let point =
  { name = "point";
    why =
      "stdio, 1 closed-loop client, scale 0.01 tpch, 4 one-table queries, \
       fresh seed per execute: ~45 us of engine work, so Json, Wire, \
       Session and the pipe dominate";
    scale = 0.01;
    source = Tpch;
    transport = Stdio;
    clients = 1;
    journal = false;
    queries = point_queries;
    request = point_request;
    setup_reps = 21;
    replay = 5000 }

let analytic =
  { name = "analytic";
    why =
      "stdio, 1 closed-loop client, scale 1 from CSV, one 4-panel batch \
       (joins, GROUP BY AVG) per request: the exec core and Scheduler \
       fan-out are ~99% of each request";
    scale = 1.0;
    source = Csv;
    transport = Stdio;
    clients = 1;
    journal = false;
    queries = analytic_queries;
    request = analytic_request;
    setup_reps = 7;
    replay = 24 }

let dashboard =
  { name = "dashboard";
    why =
      "TCP --journal, 2 closed-loop connections on one poll loop, scale 0.1 \
       snapshot, Zipf seeds (~0.4 cache hits), 1 register per 2000: Server, \
       Cache, Journal, re-prepare";
    scale = 0.1;
    source = Snapshot;
    transport = Tcp;
    clients = 2;
    journal = true;
    queries = dashboard_queries;
    request = dashboard_request;
    setup_reps = 21;
    replay = 4000 }

let all = [ point; analytic; dashboard ]

(* The smoke size: same shape, a fraction of the data and replay. *)
let tiny w =
  { w with
    scale = Float.min w.scale 0.02;
    setup_reps = 1;
    replay = min w.replay 20 }

let find name = List.find_opt (fun w -> w.name = name) all

(* ~1% of each connection's requests, fixed by the seed, are re-run in
   process after the timed phase and must match bit for bit.  The first
   request always is, so slow workloads check at least one. *)
let checked ~seed ~conn i = i = 0 || Rng.int (rng ~stream:2 ~seed ~conn i) 100 = 0

(* ---- wire lines ---- *)

let obj fields = Json.to_string (Json.Obj fields)

let source_spec w ~seed ~dir =
  match w.source with
  | Tpch -> Catalog.Tpch { scale = w.scale; seed }
  | Csv -> Catalog.Csv_dir (Filename.concat dir "csv")
  | Snapshot -> Catalog.Snapshot (Filename.concat dir "data.snap")

let register_line source =
  match Json.of_string (Catalog.source_json source) with
  | Json.Obj fields ->
      obj ([ ("op", Json.Str "register"); ("name", Json.Str dataset) ] @ fields)
  | _ -> assert false

let prepare_line q =
  obj
    [ ("op", Json.Str "prepare");
      ("dataset", Json.Str dataset);
      ("name", Json.Str q.qname);
      ("sql", Json.Str q.sql) ]

let exact_line q =
  Printf.sprintf {|{"op":"execute","handle":"%s","seed":1,"exact":true}|} q.qname

let item_json (handle, seed) = Printf.sprintf {|{"handle":"%s","seed":%d}|} handle seed

let line ~register = function
  | Execute { handle; seed } -> Printf.sprintf {|{"op":"execute","handle":"%s","seed":%d}|} handle seed
  | Batch items ->
      Printf.sprintf {|{"op":"batch","items":[%s]}|}
        (String.concat "," (List.map item_json items))
  | Register -> register

(* ---- the cache model ---- *)

(* Predicted response-cache hit fraction for a workload's stream: an LRU
   of [capacity] keyed like the engine's cache (query text × seed; the
   connections share entries), cleared by every register, over the
   connections' streams interleaved round robin. *)
let lru_hit_frac w ~seed ~capacity ~per_conn =
  let last_use = Hashtbl.create (2 * capacity) in
  let tick = ref 0 and hits = ref 0 and total = ref 0 in
  let touch key =
    incr tick;
    incr total;
    if Hashtbl.mem last_use key then incr hits
    else if Hashtbl.length last_use >= capacity then begin
      let victim =
        Hashtbl.fold
          (fun k t (bk, bt) -> if t < bt then (Some k, t) else (bk, bt))
          last_use (None, max_int)
      in
      Option.iter (Hashtbl.remove last_use) (fst victim)
    end;
    Hashtbl.replace last_use key !tick
  in
  for i = 0 to per_conn - 1 do
    for conn = 0 to w.clients - 1 do
      match w.request ~seed ~conn i with
      | Register -> Hashtbl.reset last_use
      | Execute { handle; seed } -> touch (handle, seed)
      | Batch items -> List.iter touch items
    done
  done;
  float_of_int !hits /. float_of_int (max 1 !total)
