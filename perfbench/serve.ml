(* serve-cold: a [Server.run] daemon at one domain, forked before any
   domain exists, driven by this single-threaded process over two
   unix-socket connections.  Every request carries a fresh seed, so every
   request misses the daemon's caches.

   Two timed phases: an open loop at a pinned rate, timing each request
   from when it was due, then a closed loop with a fixed number of
   requests in flight, which gives the reported metrics.  At a rate the
   daemon sustains it idles between requests, and on a virtual machine
   each wake-up from idle costs a few ms that depend on the host's load,
   so the open loop's latencies go to the provenance line only; the phase
   checks the generator's lateness.  A seeded subset of the responses is
   checked against an in-process [Engine.submit_batch] replay of the same
   requests: the bodies must be byte-equal. *)

open Common
module Protocol = Ls_serve.Protocol
module Server = Ls_serve.Server
module Engine = Ls_serve.Engine
module Frame = Ls_shard.Frame
module Inference = Ls_core.Inference
module Local_sampler = Ls_core.Local_sampler

(* The open-loop rate: about half of the closed-loop capacity on the
   reference machine (about 250 req/s), so a slow period does not push the
   daemon into queueing.  The open loop takes a quarter of the run. *)
let open_rate = 125.
let open_share = 0.25

(* Requests in flight per connection in the closed loop. *)
let window = 4
let conns = 2

(* Generator lateness (windowed p99) above this marks the run invalid: one
   interval between sends, so a p99 send went out after the next one was
   due. *)
let late_bound_ms = 1000. /. open_rate

(* Requests sent to each daemon in set-up, before timing. *)
let warm_requests = 8

(* The deterministic counts cover exactly this many leading requests. *)
let count_ops = 256

(* The output check replays one request in [check_every], chosen by seed. *)
let check_every = 8
let check_max = 600

(* --- request streams --------------------------------------------------- *)

(* Graph, model, t and engine of the two seed-sensitive families. *)
let families = [| ("regular:64x3", "hardcore:0.5", 3, "saw"); ("tree-rand:64", "ising:0.2", 2, "ball") |]

let request ~id ~op ~seed ~graph ~model ~t ~engine ~trials ~vertex =
  { Protocol.id; op; seed; graph; model; t; engine; trials; vertex; deadline_ms = 0 }

(* Request [i] of a run: a pure function of the workload seed and [i]. *)
let gen seed i =
  let rng = op_rng seed i in
  let graph, model, t, engine = families.(if Rng.bool rng then 0 else 1) in
  let s = Rng.bits64 rng in
  let u = Rng.float rng in
  let op, trials =
    if u < 0.5 then (Protocol.Sample, 1 + Rng.int rng 4)
    else if u < 0.8 then (Protocol.Infer, 1)
    else (Protocol.Count, 1)
  in
  request ~id:i ~op ~seed:s ~graph ~model ~t ~engine ~trials ~vertex:(Rng.int rng 64)

(* --- the daemon child -------------------------------------------------- *)

type daemon = { pid : int; report : Unix.file_descr; path : string }

let live : daemon list ref = ref []
let run_dir = Printf.sprintf ".perfbench/run-%d" (Unix.getpid ())

let remove_run_dir () =
  (try Array.iter (fun f -> Sys.remove (Filename.concat run_dir f)) (Sys.readdir run_dir)
   with Sys_error _ -> ());
  try Sys.rmdir run_dir with Sys_error _ -> ()

(* Every exit path kills the daemons still alive and removes their
   sockets: a failed check, an exception, SIGTERM/SIGINT. *)
let cleanup () =
  List.iter
    (fun d ->
      (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ());
      try Unix.close d.report with Unix.Unix_error _ -> ())
    !live;
  live := [];
  remove_run_dir ()

let read_with_deadline fd deadline =
  let buf = Buffer.create 64 and chunk = Bytes.create 256 in
  let rec go () =
    let left = deadline -. Report.now () in
    if left <= 0. then None
    else
      match Unix.select [ fd ] [] [] left with
      | [], _, _ -> go ()
      | _ -> (
          match Unix.read fd chunk 0 256 with
          | 0 -> Some (Buffer.contents buf)
          | k ->
              Buffer.add_subbytes buf chunk 0 k;
              go ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let spawn k =
  ensure_dir run_dir;
  let path = Filename.concat run_dir (Printf.sprintf "d%d.sock" k) in
  let rd, wr = Unix.pipe ~cloexec:true () in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      (* The child never returns into the benchmark: it serves until
         SIGTERM, reports its own counters on the pipe and exits. *)
      (try
         Unix.close rd;
         Ls_par.Par.set_domains 1;
         (* A queue bound far above what the loads here keep in flight, so
            a host stall delays requests rather than refusing them. *)
         let cfg = Server.config ~address:(Server.Unix_path path) ~queue_bound:4096 () in
         let ready () = ignore (Unix.write_substring wr "R" 0 1) in
         let st = Server.run ~cfg ~on_ready:ready () in
         let q = Gc.quick_stat () in
         let line =
           Printf.sprintf "%d %.17g %.17g %d %d %.17g\n" st.Protocol.st_requests q.Gc.minor_words
             q.Gc.promoted_words q.Gc.minor_collections q.Gc.major_collections
             (Report.peak_rss_mb ())
         in
         ignore (Unix.write_substring wr line 0 (String.length line))
       with _ -> ());
      Unix._exit 0
  | pid ->
      Unix.close wr;
      let d = { pid; report = rd; path } in
      live := d :: !live;
      (* One byte once the socket listens (nothing if the child died). *)
      (match Unix.select [ rd ] [] [] 30. with
      | [], _, _ -> failwith "daemon did not start listening"
      | _ -> if Unix.read rd (Bytes.create 1) 0 1 <> 1 then failwith "daemon died at start");
      d

type child_report = {
  c_requests : int;
  c_minor_words : float;
  c_promoted : float;
  c_minor_gcs : int;
  c_major_gcs : int;
  c_rss_mb : float;
}

(* SIGTERM drains the daemon; its report line follows on the pipe. *)
let stop d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let line = read_with_deadline d.report (Report.now () +. 30.) in
  (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ());
  (try Unix.close d.report with Unix.Unix_error _ -> ());
  live := List.filter (fun x -> x.pid <> d.pid) !live;
  match line with
  | Some s -> (
      try
        Scanf.sscanf s "%d %f %f %d %d %f" (fun a b c e f g ->
            Some
              {
                c_requests = a;
                c_minor_words = b;
                c_promoted = c;
                c_minor_gcs = e;
                c_major_gcs = f;
                c_rss_mb = g;
              })
      with _ -> None)
  | None -> None

(* --- the client -------------------------------------------------------- *)

type inflight = { req : Protocol.request; due : float }

type conn = {
  fd : Unix.file_descr;
  mutable inbuf : string;
  inflight : (int, inflight) Hashtbl.t;
      (** By request id: an admission refusal is answered at once, ahead of
          the connection's queued requests. *)
}

type answer = { a_req : Protocol.request; a_body : Protocol.body; a_due : float; a_done : float }

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  { fd; inbuf = ""; inflight = Hashtbl.create 64 }

let write_all fd s =
  let len = String.length s in
  let rec go off =
    if off < len then
      match Unix.write_substring fd s off (len - off) with
      | k -> go (off + k)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

let send rc c req ~due =
  let bytes =
    Span.maybe rc Span.Codec (fun () ->
        (match Protocol.validate_request req with Ok () -> () | Error e -> failwith e);
        let f = Protocol.request_frame req in
        Span.maybe rc Span.Frame (fun () -> Frame.encode f))
  in
  Span.maybe rc Span.Send (fun () -> write_all c.fd bytes);
  Hashtbl.replace c.inflight req.Protocol.id { req; due }

let chunk = Bytes.create 65536

(* Read what the socket holds and decode every complete response. *)
let receive rc c ~on_answer =
  match Span.maybe rc Span.Recv (fun () -> Unix.read c.fd chunk 0 (Bytes.length chunk)) with
  | 0 -> failwith "daemon closed the connection"
  | k ->
      c.inbuf <- c.inbuf ^ Bytes.sub_string chunk 0 k;
      let rec decode () =
        let next =
          Span.maybe rc Span.Codec (fun () ->
              match Span.maybe rc Span.Frame (fun () -> Frame.decode_prefix c.inbuf) with
              | Ok None -> None
              | Ok (Some (f, used)) -> Some (Protocol.response_of_frame f, used)
              | Error e -> failwith ("malformed response frame: " ^ e))
        in
        match next with
        | None -> ()
        | Some (resp, used) ->
            c.inbuf <- String.sub c.inbuf used (String.length c.inbuf - used);
            let now = Report.now () in
            (match resp with
            | Ok r -> (
                match Hashtbl.find_opt c.inflight r.Protocol.rid with
                | Some fl ->
                    Hashtbl.remove c.inflight r.Protocol.rid;
                    on_answer { a_req = fl.req; a_body = r.Protocol.body; a_due = fl.due; a_done = now }
                | None -> failwith (Printf.sprintf "response for unknown request %d" r.Protocol.rid))
            | Error e -> failwith ("malformed response: " ^ e));
            decode ()
      in
      decode ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

(* Wait up to [timeout] for responses on any connection. *)
let poll rc cs ~timeout ~on_answer =
  let fds = List.map (fun c -> c.fd) cs in
  match Span.maybe rc Span.Wait (fun () -> Unix.select fds [] [] (max 0. timeout)) with
  | ready, _, _ -> List.iter (fun c -> if List.memq c.fd ready then receive rc c ~on_answer) cs
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

let pending cs = List.exists (fun c -> Hashtbl.length c.inflight > 0) cs

let drain rc cs ~on_answer =
  let deadline = Report.now () +. 30. in
  while pending cs && Report.now () < deadline do
    poll rc cs ~timeout:(deadline -. Report.now ()) ~on_answer
  done

(* One request, answered before returning (health, stats). *)
let call c req =
  let got = ref None in
  send None c req ~due:(Report.now ());
  drain None [ c ] ~on_answer:(fun a -> got := Some a.a_body);
  match !got with Some b -> b | None -> failwith "no response"

let stats c =
  match call c (request ~id:0 ~op:Protocol.Stats ~seed:0L ~graph:"-" ~model:"-" ~t:0 ~engine:"-" ~trials:1 ~vertex:0) with
  | Protocol.Stats_r s -> s
  | _ -> failwith "Stats reply expected"

(* --- replay: the output check and the per-stage costs ------------------ *)

let ok_body = function Protocol.Error_r _ -> false | _ -> true

(* Admission verdicts: the daemon refused the request without running
   it.  They count as failed ops, but they are not wrong answers. *)
let refusal = function
  | Protocol.Error_r { code = Protocol.Overloaded | Protocol.Expired; _ } -> true
  | _ -> false

(* Replay [reqs] through an in-process engine in batches of [size]; the
   bodies, and the seconds spent. *)
let engine_replay reqs ~size =
  let engine = Engine.create () in
  let reqs = Array.of_list reqs in
  let n = Array.length reqs in
  let out = Hashtbl.create n in
  let t0 = Report.now () in
  let rec go lo =
    if lo < n then begin
      let b = Array.to_list (Array.sub reqs lo (min size (n - lo))) in
      List.iter2
        (fun (r : Protocol.request) res ->
          let body = match res with Ok b -> b | Error e -> Engine.error_body e in
          Hashtbl.replace out r.Protocol.id body)
        b (Engine.submit_batch engine b);
      go (lo + size)
    end
  in
  go 0;
  (out, Report.now () -. t0)

type stages = {
  mutable misses : int;
  mutable graph_s : float;
  mutable compile_s : float;
  mutable plan_misses : int;
  mutable plan_s : float;
  mutable exec_s : float;
  mutable exec_n : int;
  mutable sample_trials : int;
  mutable rounds : int;
}

(* The engine's stages rebuilt from public functions: graph build, model
   and oracle compile, Linial-Saks plan, execution.  Caches use the
   engine's own instance key. *)
let stage_replay ~timed reqs =
  let st =
    {
      misses = 0;
      graph_s = 0.;
      compile_s = 0.;
      plan_misses = 0;
      plan_s = 0.;
      exec_s = 0.;
      exec_n = 0;
      sample_trials = 0;
      rounds = 0;
    }
  in
  let instances = Hashtbl.create 64 and plans = Hashtbl.create 256 in
  let instance (r : Protocol.request) =
    let key = Engine.instance_key r in
    match Hashtbl.find_opt instances key with
    | Some v -> (key, v)
    | None ->
        let t0 = Report.now () in
        let g = ok_exn "graph" (Engine.parse_graph (Rng.create r.Protocol.seed) r.Protocol.graph) in
        let t1 = Report.now () in
        let m = ok_exn "model" (Engine.parse_model g r.Protocol.model) in
        let inst = Ls_core.Instance.unpinned m.Engine.spec in
        let oracle = ok_exn "oracle" (Engine.make_oracle ~engine:r.Protocol.engine ~t:r.Protocol.t inst) in
        st.misses <- st.misses + 1;
        st.graph_s <- st.graph_s +. (t1 -. t0);
        st.compile_s <- st.compile_s +. (Report.now () -. t0);
        Hashtbl.replace instances key (inst, oracle);
        (key, (inst, oracle))
  in
  let run ~measure (r : Protocol.request) =
    let key, (inst, oracle) = instance r in
    match r.Protocol.op with
    | Protocol.Sample ->
        let seeds = Array.map Rng.bits64 (Rng.streams r.Protocol.seed r.Protocol.trials) in
        Array.iter
          (fun s ->
            let pkey = key ^ Int64.to_string s in
            let plan =
              match Hashtbl.find_opt plans pkey with
              | Some p -> p
              | None ->
                  let t0 = Report.now () in
                  let p = Local_sampler.plan oracle inst ~seed:s in
                  st.plan_misses <- st.plan_misses + 1;
                  st.plan_s <- st.plan_s +. (Report.now () -. t0);
                  Hashtbl.replace plans pkey p;
                  p
            in
            st.sample_trials <- st.sample_trials + 1;
            st.rounds <- st.rounds + plan.Ls_local.Scheduler.p_rounds;
            if measure then begin
              let t0 = Report.now () in
              ignore (Sys.opaque_identity (Local_sampler.sample_planned oracle ~plan inst ~seed:s));
              st.exec_s <- st.exec_s +. (Report.now () -. t0)
            end)
          seeds
    | Protocol.Infer when measure ->
        let t0 = Report.now () in
        ignore (Sys.opaque_identity (oracle.Inference.infer inst r.Protocol.vertex));
        st.exec_s <- st.exec_s +. (Report.now () -. t0)
    | Protocol.Count when measure ->
        let t0 = Report.now () in
        let order = Array.init (Ls_core.Instance.n inst) Fun.id in
        ignore (Sys.opaque_identity (Ls_core.Reductions.estimate_log_partition oracle inst ~order));
        st.exec_s <- st.exec_s +. (Report.now () -. t0)
    | _ -> ()
  in
  List.iter
    (fun r ->
      run ~measure:timed r;
      st.exec_n <- st.exec_n + 1)
    reqs;
  st

(* --- the run ----------------------------------------------------------- *)

let run ~seed ~seconds ~traced =
  Ls_par.Par.set_domains 1;
  at_exit cleanup;
  let on_signal = Sys.Signal_handle (fun _ -> exit 130) in
  Sys.set_signal Sys.sigterm on_signal;
  Sys.set_signal Sys.sigint on_signal;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* Set-up: fork the daemon, wait for its first Health reply, and send it
     a few requests of the workload's own kind, so its first-request costs
     fall in set-up and the set-up time is more than wake-up latency.
     Repeated; the last daemon is the one measured. *)
  let reps = 15 in
  let setup_times = Array.make reps 0. in
  let daemon = ref None and clients = ref [] in
  for i = 0 to reps - 1 do
    (match !daemon with
    | Some d ->
        List.iter (fun c -> Unix.close c.fd) !clients;
        ignore (stop d)
    | None -> ());
    let t0 = Report.now () in
    let d = spawn i in
    let cs = List.init conns (fun _ -> connect d.path) in
    (match call (List.hd cs) (request ~id:0 ~op:Protocol.Health ~seed:0L ~graph:"-" ~model:"-" ~t:0 ~engine:"-" ~trials:1 ~vertex:0) with
    | Protocol.Health_r _ -> ()
    | _ -> failwith "Health reply expected");
    for j = 1 to warm_requests do
      if not (ok_body (call (List.hd cs) { (gen warm_seed j) with Protocol.id = 0 })) then
        failwith "warm-up request failed"
    done;
    setup_times.(i) <- Report.now () -. t0;
    daemon := Some d;
    clients := cs
  done;
  let d = Option.get !daemon and cs = !clients in
  let setup_s = Report.median setup_times in
  let rc = if traced then Some (Span.create ()) else None in
  let answers = ref [] in
  let on_answer a = answers := a :: !answers in
  let next_id = ref 0 in
  let send_next rc c ~due =
    let r = gen seed !next_id in
    incr next_id;
    send rc c r ~due
  in
  let s0 = stats (List.hd cs) in
  (* Phase 1: open loop at the pinned rate, alternating connections.  The
     generator polls without sleeping, so its own wake-ups from idle do not
     make it late. *)
  let open_s = seconds *. open_share in
  let late = ref [] (* newest first *) in
  let t_open = Report.now () +. 0.01 in
  let i = ref 0 in
  while Report.now () < t_open +. open_s do
    let due = t_open +. (float_of_int !i /. open_rate) in
    if Report.now () >= due then begin
      send_next None (List.nth cs (!i mod conns)) ~due;
      late := (Report.now () -. due) :: !late;
      incr i
    end
    else poll None cs ~timeout:0. ~on_answer
  done;
  drain None cs ~on_answer;
  let open_answers = !answers in
  let open_sent = !i in
  (* Phase 2: closed loop, [window] requests in flight per connection.
     A traced run traces alternate quarter-second slices, so the traced and
     untraced slices' time per answer measures the tracing cost. *)
  let closed_s = seconds -. open_s in
  let closed_ok = ref [] and closed_n = ref 0 and closed_answers = ref [] in
  let t_closed = Report.now () in
  let t_end = t_closed +. closed_s in
  let slice_rc () =
    if traced && int_of_float ((Report.now () -. t_closed) /. 0.25) mod 2 = 0 then rc else None
  in
  let slice_t = [| 0.; 0. |] and slice_n = [| 0; 0 |] in
  let slice = ref 0 in
  List.iter (fun c -> for _ = 1 to window do send_next None c ~due:(Report.now ()) done) cs;
  let closed_answer src c a =
    on_answer a;
    closed_answers := a :: !closed_answers;
    incr closed_n;
    slice_n.(!slice) <- slice_n.(!slice) + 1;
    if ok_body a.a_body then closed_ok := a.a_done :: !closed_ok;
    if Report.now () < t_end then send_next src c ~due:(Report.now ())
  in
  while pending cs do
    let src = slice_rc () in
    slice := if Option.is_none src then 1 else 0;
    (match src with Some r -> Span.set_op r !closed_n | None -> ());
    let t0 = Report.now () in
    Span.maybe src Span.Op (fun () ->
        let fds = List.map (fun c -> c.fd) cs in
        match Span.maybe src Span.Wait (fun () -> Unix.select fds [] [] 30.) with
        | [], _, _ -> failwith "closed loop: daemon stopped answering"
        | ready, _, _ ->
            List.iter
              (fun c -> if List.memq c.fd ready then receive src c ~on_answer:(closed_answer src c))
              cs
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
    slice_t.(!slice) <- slice_t.(!slice) +. (Report.now () -. t0)
  done;
  let closed_wall = Report.now () -. t_closed in
  let s1 = stats (List.hd cs) in
  List.iter (fun c -> Unix.close c.fd) cs;
  let child = stop d in
  let all = List.rev !answers in
  let sent = !next_id in
  (* Output check: byte-equal bodies against in-process Engine runs. *)
  let batch_mean =
    Report.ratio
      (float_of_int (s1.Protocol.st_requests - s0.Protocol.st_requests))
      (float_of_int (s1.Protocol.st_batches - s0.Protocol.st_batches))
  in
  let checked =
    let pick a =
      Int64.rem
        (Int64.logand (Splitmix.mix64 (Int64.add seed (Int64.of_int a.a_req.Protocol.id))) 0xffffL)
        (Int64.of_int check_every)
      = 0L
    in
    List.filteri (fun k _ -> k < check_max) (List.filter pick all)
  in
  let replayed, replay_s =
    engine_replay (List.map (fun a -> a.a_req) checked)
      ~size:(max 1 (int_of_float (Float.round batch_mean)))
  in
  let mismatches = ref 0 and first_bad = ref "" in
  List.iter
    (fun a ->
      let enc b = Protocol.encode_response { Protocol.rid = a.a_req.Protocol.id; body = b } in
      if ok_body a.a_body && enc a.a_body <> enc (Hashtbl.find replayed a.a_req.Protocol.id)
      then begin
        incr mismatches;
        if !first_bad = "" then first_bad := Printf.sprintf "request %d" a.a_req.Protocol.id
      end)
    checked;
  let count p = List.length (List.filter (fun a -> p a.a_body) all) in
  let refused = count refusal in
  let errors = count (fun b -> not (ok_body b || refusal b)) in
  let missing = sent - List.length all in
  (* The reported latency is the closed loop's, from each send; the open
     loop's percentiles go to the provenance line. *)
  let latencies answers =
    Array.of_list
      (List.map
         (fun a -> a.a_done -. a.a_due)
         (List.sort (fun a b -> compare a.a_due b.a_due) answers))
  in
  let lat = latencies !closed_answers in
  let open_p50, open_p99 = Report.p50_p99 (latencies open_answers) in
  let late = Array.of_list (List.rev !late) in
  let late_p99_ms =
    Report.windowed late ~min_window:1000 (fun a -> Report.percentile a 99.) *. 1e3
  in
  let generator_ok = late_p99_ms <= late_bound_ms in
  let failed =
    !mismatches + errors + refused + missing + if generator_ok then 0 else open_sent
  in
  (* rounds_per_op: LOCAL rounds per Sample trial over the counted prefix. *)
  let prefix = List.init (min count_ops sent) (gen seed) in
  let counts = stage_replay ~timed:false prefix in
  let fi = float_of_int in
  let p50, p99 = Report.p50_p99 lat in
  let child_words, child_rss =
    match child with
    | Some c -> (Report.ratio c.c_minor_words (fi c.c_requests), c.c_rss_mb)
    | None -> (0., 0.)
  in
  let e2e =
    [
      ("setup_s", setup_s, "s");
      ( "throughput_ops_s",
        Report.windowed_rate (Array.of_list !closed_ok) ~t0:t_closed ~t1:t_end ~window:0.5,
        "1/s" );
      ("op_p50_ms", p50 *. 1e3, "ms");
      ("op_p99_ms", p99 *. 1e3, "ms");
      ("ok_frac", 1. -. (fi failed /. fi (max 1 sent)), "frac");
      ("peak_rss_mb", child_rss, "MB");
      ("alloc_words_per_op", child_words, "words");
      ("rounds_per_op", Report.ratio (fi counts.rounds) (fi counts.sample_trials), "count");
    ]
  in
  let layers =
    match rc with
    | None -> []
    | Some r ->
        let dreq = fi (s1.Protocol.st_requests - s0.Protocol.st_requests) in
        let hits = fi (s1.Protocol.st_cache_hits - s0.Protocol.st_cache_hits) in
        let misses = fi (s1.Protocol.st_cache_misses - s0.Protocol.st_cache_misses) in
        let engine_ms = Report.ratio replay_s (fi (List.length checked)) *. 1e3 in
        let service_ms = Report.ratio closed_wall (fi !closed_n) *. 1e3 in
        let staged =
          stage_replay ~timed:true
            (List.filteri (fun k _ -> k < 2000) (List.map (fun a -> a.a_req) checked))
        in
        (* Each traced request is one encode and one decode. *)
        let reqs = fi (Span.calls r Span.Send) in
        let weights =
          List.map
            (fun (graph, model, t, engine) ->
              let g = ok_exn "graph" (Engine.parse_graph (Rng.create seed) graph) in
              let m = ok_exn "model" (Engine.parse_model g model) in
              let inst = Ls_core.Instance.unpinned m.Engine.spec in
              let oracle = ok_exn "oracle" (Engine.make_oracle ~engine ~t inst) in
              (oracle.Inference.infer inst 0 : Ls_dist.Dist.t :> float array))
            (Array.to_list families)
        in
        let gc =
          match child with
          | Some c ->
              {
                Report.minor_words = c.c_minor_words;
                promoted = c.c_promoted;
                minor_gcs = c.c_minor_gcs;
                major_gcs = c.c_major_gcs;
              }
          | None -> { Report.minor_words = 0.; promoted = 0.; minor_gcs = 0; major_gcs = 0 }
        in
        let child_requests = match child with Some c -> c.c_requests | None -> 1 in
        [
          ("serve.cache_hit_frac", Report.ratio hits (hits +. misses), "frac");
          ( "serve.evictions_per_req",
            Report.ratio (fi (s1.Protocol.st_evictions - s0.Protocol.st_evictions)) dreq,
            "count" );
          ("serve.batch_size_mean", batch_mean, "count");
          ( "serve.coalesced_frac",
            Report.ratio (fi (s1.Protocol.st_coalesced - s0.Protocol.st_coalesced)) dreq,
            "frac" );
          ("serve.max_queue", fi s1.Protocol.st_max_queue, "count");
          ("serve.engine_ms_per_req", engine_ms, "ms");
          ("serve.loop_ms_per_req", service_ms -. engine_ms, "ms");
          ("serve.compile_ms_per_miss", Report.ratio staged.compile_s (fi staged.misses) *. 1e3, "ms");
          ("serve.execute_ms_per_req", Report.ratio staged.exec_s (fi staged.exec_n) *. 1e3, "ms");
          ( "serve.codec_us_per_req",
            Report.ratio (Span.self_s r Span.Codec +. Span.self_s r Span.Frame) reqs *. 1e6,
            "us" );
          ( "serve.codec_words_per_req",
            Report.ratio (Span.self_words r Span.Codec +. Span.self_words r Span.Frame) reqs,
            "words" );
          ("serve.client_send_us", Report.ratio (Span.self_s r Span.Send) reqs *. 1e6, "us");
          ( "shard.frame_us_per_msg",
            Report.ratio (Span.self_s r Span.Frame) (fi (Span.calls r Span.Frame)) *. 1e6,
            "us" );
          ( "shard.frame_words_per_msg",
            Report.ratio (Span.self_words r Span.Frame) (fi (Span.calls r Span.Frame)),
            "words" );
          ("graph.build_ms", Report.ratio staged.graph_s (fi staged.misses) *. 1e3, "ms");
          ("local.plan_ms", Report.ratio staged.plan_s (fi staged.plan_misses) *. 1e3, "ms");
          ("loadgen.late_p99_ms", late_p99_ms, "ms");
          ( "trace.overhead_frac",
            Report.ratio
              (Report.ratio slice_t.(0) (fi slice_n.(0)))
              (Report.ratio slice_t.(1) (fi slice_n.(1)))
            -. 1.,
            "frac" );
          ("trace.coverage_frac", Span.coverage r, "frac");
        ]
        @ Report.gc_metrics gc ~ops:child_requests
        @ kernel_rows ~seed ~weights ~n:64
  in
  {
    attempted = max 1 sent;
    failed;
    checks =
      [
        ( "bodies",
          !mismatches = 0,
          Printf.sprintf "%d of %d checked responses differ from in-process Engine%s" !mismatches
            (List.length checked)
            (if !first_bad = "" then "" else " (first: " ^ !first_bad ^ ")") );
        ( "answered",
          missing = 0 && errors = 0,
          Printf.sprintf "%d sent, %d missing, %d error responses, %d refused by admission" sent
            missing errors refused );
        ( "generator",
          generator_ok,
          Printf.sprintf "open-loop lateness p99 %.3f ms (bound %.1f ms)" late_p99_ms late_bound_ms );
        ("daemon_report", child <> None, "daemon child reported its counters at drain");
      ];
    e2e;
    layers;
    info =
      [
        ("domains", `I 1);
        ("connections", `I conns);
        ("open_rate_per_s", `F open_rate);
        ("open_loop_sent", `I open_sent);
        ("closed_window_per_conn", `I window);
        ("op_samples", `I (Array.length lat));
        ("open_loop_p50_ms", `F (open_p50 *. 1e3));
        ("open_loop_p99_ms", `F (open_p99 *. 1e3));
        ("closed_answered", `I !closed_n);
        ("checked", `I (List.length checked));
      ];
    spans = rc;
  }
