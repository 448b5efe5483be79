(* `gusdb serve` as a child process, and the client ends that drive it.

   Both transports look the same to the load generator: a connection is
   a pair of raw descriptors (the child's stdin/stdout pipes, or one TCP
   socket) carrying NDJSON lines.  All connections of a run are driven by
   one single-threaded poll loop ({!closed_loop}), each with at most one
   request outstanding. *)

let now_ns = Gus_obs.Trace.now_ns

type conn = {
  rd : Unix.file_descr;
  wr : Unix.file_descr;
  chunk : Bytes.t;
  partial : Buffer.t;  (* bytes after the last complete line *)
  lines : string Queue.t;  (* complete lines not yet consumed *)
}

type t = {
  pid : int;
  conns : conn array;
  tcp : bool;
  stdout : Unix.file_descr option;  (* a TCP server's stdout, kept open *)
}

let conn_of rd wr =
  { rd; wr; chunk = Bytes.create 65536; partial = Buffer.create 4096;
    lines = Queue.create () }

let rec restart f = try f () with Unix.Unix_error (Unix.EINTR, _, _) -> restart f

let write_line c line =
  let s = line ^ "\n" in
  let len = String.length s in
  let off = ref 0 in
  while !off < len do
    off := !off + restart (fun () -> Unix.write_substring c.wr s !off (len - !off))
  done

(* One blocking read; splits off every complete line.  [false] on EOF. *)
let fill c =
  let n = restart (fun () -> Unix.read c.rd c.chunk 0 (Bytes.length c.chunk)) in
  if n = 0 then false
  else begin
    let start = ref 0 in
    for i = 0 to n - 1 do
      if Bytes.get c.chunk i = '\n' then begin
        Buffer.add_subbytes c.partial c.chunk !start (i - !start);
        Queue.push (Buffer.contents c.partial) c.lines;
        Buffer.clear c.partial;
        start := i + 1
      end
    done;
    Buffer.add_subbytes c.partial c.chunk !start (n - !start);
    true
  end

let rec read_line c =
  match Queue.take_opt c.lines with
  | Some l -> l
  | None -> if fill c then read_line c else raise End_of_file

let request c line =
  write_line c line;
  read_line c

let dev_null () = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0

let connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  conn_of fd fd

(* Every child this process started and has not reaped yet — the
   watchdog kills them before giving up. *)
let live = ref []

let spawn ~gusdb ~tcp ~clients ~journal =
  let journal_args = match journal with Some f -> [ "--journal"; f ] | None -> [] in
  if tcp then begin
    let null = dev_null () in
    let from_child, child_out = Unix.pipe ~cloexec:true () in
    let args = [ gusdb; "serve"; "--tcp"; "--port"; "0" ] @ journal_args in
    let pid = Unix.create_process gusdb (Array.of_list args) null child_out Unix.stderr in
    Unix.close null;
    Unix.close child_out;
    live := pid :: !live;
    (* The server announces "listening on HOST:PORT" once bound. *)
    let line =
      try read_line (conn_of from_child from_child)
      with End_of_file -> failwith "gusdb serve --tcp exited before listening"
    in
    let port =
      match int_of_string_opt (List.nth (String.split_on_char ':' line) 1) with
      | Some p -> p
      | None | (exception _) -> failwith ("unexpected gusdb serve --tcp banner: " ^ line)
    in
    { pid; conns = Array.init clients (fun _ -> connect port); tcp; stdout = Some from_child }
  end
  else begin
    let child_in, to_child = Unix.pipe ~cloexec:true () in
    let from_child, child_out = Unix.pipe ~cloexec:true () in
    let args = [ gusdb; "serve" ] @ journal_args in
    let pid =
      Unix.create_process gusdb (Array.of_list args) child_in child_out Unix.stderr
    in
    Unix.close child_in;
    Unix.close child_out;
    live := pid :: !live;
    { pid; conns = [| conn_of from_child to_child |]; tcp; stdout = None }
  end

(* Peak resident set of the child, from [VmHWM] in /proc. *)
let peak_rss_mb t =
  let path = Printf.sprintf "/proc/%d/status" t.pid in
  let kb =
    In_channel.with_open_text path In_channel.input_lines
    |> List.find_map (fun l ->
           match String.split_on_char ':' l with
           | [ "VmHWM"; v ] ->
               Scanf.sscanf_opt (String.trim v) "%d kB" (fun kb -> kb)
           | _ -> None)
  in
  match kb with
  | Some kb -> float_of_int kb /. 1024.
  | None -> failwith ("no VmHWM in " ^ path)

let close_conn c =
  (try Unix.close c.wr with Unix.Unix_error _ -> ());
  if c.rd <> c.wr then try Unix.close c.rd with Unix.Unix_error _ -> ()

(* stdio: EOF on stdin ends the serve loop.  TCP: the server runs until
   signalled. *)
let stop t =
  if t.tcp then (try Unix.kill t.pid Sys.sigterm with Unix.Unix_error _ -> ());
  Array.iter close_conn t.conns;
  Option.iter Unix.close t.stdout;
  ignore (restart (fun () -> Unix.waitpid [] t.pid));
  live := List.filter (fun p -> p <> t.pid) !live

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !live;
  live := []

(* The timed phase's replies, stored flat: six ints per reply and the
   reply text in one buffer.  Kept as small heap objects, a long run's
   replies would grow the client's scanned heap, and the GC pauses that
   causes would land inside measured round trips. *)
type replies = {
  mutable meta : int array;
      (* conn, idx, lat_ns, arrival since start (ns), text offset (-1: dropped), length *)
  mutable n : int;
  text : Buffer.t;
}

let add_reply r ~conn ~idx ~lat_ns ~at_ns resp =
  if 6 * (r.n + 1) > Array.length r.meta then begin
    let bigger = Array.make (2 * Array.length r.meta) 0 in
    Array.blit r.meta 0 bigger 0 (6 * r.n);
    r.meta <- bigger
  end;
  let off, len =
    match resp with
    | Some l ->
        let off = Buffer.length r.text in
        Buffer.add_string r.text l;
        (off, String.length l)
    | None -> (-1, 0)
  in
  Array.blit [| conn; idx; lat_ns; at_ns; off; len |] 0 r.meta (6 * r.n) 6;
  r.n <- r.n + 1

(* [f ~conn ~idx ~lat_ns ~at_ns resp] per reply, in arrival order;
   [resp] is [None] where the connection dropped. *)
let iter_replies r f =
  for k = 0 to r.n - 1 do
    let m i = r.meta.((6 * k) + i) in
    f ~conn:(m 0) ~idx:(m 1) ~lat_ns:(m 2) ~at_ns:(m 3)
      (if m 4 < 0 then None else Some (Buffer.sub r.text (m 4) (m 5)))
  done

(* Closed loop: each connection sends request [i+1] only after reply [i].
   Connections stop sending at [until_ns]; outstanding requests are still
   awaited.  Returns the replies and the time of the last one, both
   relative to [start_ns]. *)
let closed_loop t ~start_ns ~until_ns ~line =
  let n = Array.length t.conns in
  let next = Array.make n 0 and sent_at = Array.make n 0 in
  let busy = Array.make n false in
  let replies = { meta = Array.make (6 * 65536) 0; n = 0; text = Buffer.create (1 lsl 20) } in
  let last = ref (now_ns ()) in
  let send c =
    let l = line c next.(c) in
    sent_at.(c) <- now_ns ();
    write_line t.conns.(c) l;
    busy.(c) <- true
  in
  let finish c resp =
    let t1 = now_ns () in
    last := t1;
    add_reply replies ~conn:c ~idx:next.(c) ~lat_ns:(t1 - sent_at.(c))
      ~at_ns:(t1 - start_ns) resp;
    next.(c) <- next.(c) + 1;
    busy.(c) <- false;
    if resp <> None && t1 < until_ns then send c
  in
  (* A connection has at most one reply pending. *)
  let service c =
    let conn = t.conns.(c) in
    if Queue.is_empty conn.lines && not (fill conn) then finish c None
    else Option.iter (fun l -> finish c (Some l)) (Queue.take_opt conn.lines)
  in
  for c = 0 to n - 1 do
    send c
  done;
  let rec loop () =
    let waiting = List.filter (fun c -> busy.(c)) (List.init n Fun.id) in
    if waiting <> [] then begin
      (match waiting with
      | [ c ] -> service c
      | _ ->
          let fds = List.map (fun c -> t.conns.(c).rd) waiting in
          let ready, _, _ = restart (fun () -> Unix.select fds [] [] (-1.)) in
          List.iter (fun c -> if List.mem t.conns.(c).rd ready then service c) waiting);
      loop ()
    end
  in
  loop ();
  (replies, !last - start_ns)
