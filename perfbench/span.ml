(* In-memory span recorder for the traced run.

   The benchmark opens a span around each call it makes into a layer.  A
   span's self time is its duration minus the part covered by its child
   spans; self time and minor words are summed per layer as spans close,
   so memory stays bounded however many spans a run records.  The full
   spans (name, start, end, parent, op id) of the first [keep_ops] ops
   are also kept and written out when the benchmark ends.

   A recorder is owned by one domain at a time: parallel trials each get
   their own and the caller merges them after the batch. *)

type layer =
  | Op  (** The benchmark's own share of an op: the root span. *)
  | Gibbs  (** [Inference.oracle.infer]. *)
  | Core  (** [Jvv.run_local] minus its oracle calls. *)
  | Local  (** [Local_sampler.sample_resilient] minus its oracle calls. *)
  | Sketch  (** [Empirical.Sketched.add]. *)
  | Codec  (** [Protocol] request/response payload codec. *)
  | Frame  (** [Ls_shard.Frame] encode and prefix decode. *)
  | Send  (** The client's socket write. *)
  | Recv  (** The client's socket read. *)
  | Wait  (** The client blocked in [select], waiting on the daemon. *)

let layers = [| Op; Gibbs; Core; Local; Sketch; Codec; Frame; Send; Recv; Wait |]

let index = function
  | Op -> 0
  | Gibbs -> 1
  | Core -> 2
  | Local -> 3
  | Sketch -> 4
  | Codec -> 5
  | Frame -> 6
  | Send -> 7
  | Recv -> 8
  | Wait -> 9

let name = function
  | Op -> "op"
  | Gibbs -> "gibbs.infer"
  | Core -> "core"
  | Local -> "local"
  | Sketch -> "sketch.add"
  | Codec -> "serve.codec"
  | Frame -> "shard.frame"
  | Send -> "serve.send"
  | Recv -> "serve.recv"
  | Wait -> "serve.wait"

let n_layers = Array.length layers
let keep_ops = 16

type open_span = {
  layer : layer;
  id : int;
  parent : int;
  t0 : float;
  w0 : float;
  mutable child_t : float;
  mutable child_w : float;
}

type t = {
  self_t : float array;  (** Seconds, per layer. *)
  self_w : float array;  (** Minor words, per layer. *)
  calls : int array;
  mutable root_t : float;  (** Summed duration of root spans. *)
  mutable stack : open_span list;
  mutable next_id : int;
  mutable op : int;
  mutable kept : string list;  (** Full spans of early ops, newest first. *)
}

let create () =
  {
    self_t = Array.make n_layers 0.;
    self_w = Array.make n_layers 0.;
    calls = Array.make n_layers 0;
    root_t = 0.;
    stack = [];
    next_id = 0;
    op = 0;
    kept = [];
  }

let set_op r op = r.op <- op

let enter r layer =
  let parent = match r.stack with s :: _ -> s.id | [] -> -1 in
  let id = r.next_id in
  r.next_id <- id + 1;
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  r.stack <- { layer; id; parent; t0; w0; child_t = 0.; child_w = 0. } :: r.stack

let leave r =
  let t1 = Unix.gettimeofday () in
  let w1 = Gc.minor_words () in
  match r.stack with
  | [] -> invalid_arg "Span.leave: no open span"
  | s :: rest ->
      r.stack <- rest;
      let dt = t1 -. s.t0 and dw = w1 -. s.w0 in
      let i = index s.layer in
      r.self_t.(i) <- r.self_t.(i) +. (dt -. s.child_t);
      r.self_w.(i) <- r.self_w.(i) +. (dw -. s.child_w);
      r.calls.(i) <- r.calls.(i) + 1;
      (match rest with
      | p :: _ ->
          p.child_t <- p.child_t +. dt;
          p.child_w <- p.child_w +. dw
      | [] -> r.root_t <- r.root_t +. dt);
      if r.op < keep_ops then
        r.kept <-
          Printf.sprintf
            "{\"op\":%d,\"id\":%d,\"parent\":%d,\"name\":\"%s\",\"start\":%.6f,\"end\":%.6f}"
            r.op s.id s.parent (name s.layer) s.t0 t1
          :: r.kept

let within r layer f =
  enter r layer;
  match f () with
  | v ->
      leave r;
      v
  | exception e ->
      leave r;
      raise e

(* [within] for an optional recorder: untraced rounds pay one match. *)
let maybe r layer f = match r with None -> f () | Some r -> within r layer f

let merge_into dst src =
  for i = 0 to n_layers - 1 do
    dst.self_t.(i) <- dst.self_t.(i) +. src.self_t.(i);
    dst.self_w.(i) <- dst.self_w.(i) +. src.self_w.(i);
    dst.calls.(i) <- dst.calls.(i) + src.calls.(i)
  done;
  dst.root_t <- dst.root_t +. src.root_t;
  dst.kept <- src.kept @ dst.kept

let self_s r l = r.self_t.(index l)
let self_words r l = r.self_w.(index l)
let calls r l = r.calls.(index l)

(* Share of root-span time that the layers below the root account for. *)
let coverage r = if r.root_t > 0. then 1. -. (self_s r Op /. r.root_t) else 0.

(* The recorder of the trial running on this domain, if it is traced: the
   wrapped oracle finds it here without threading it through the API. *)
let current : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let write_kept r path =
  let oc = open_out path in
  List.iter (fun line -> output_string oc line; output_char oc '\n') (List.rev r.kept);
  close_out oc
