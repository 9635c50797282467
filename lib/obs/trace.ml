(** Structured JIT event tracing (replaces the old all-or-nothing
    [JIT_TRACE] boolean).

    Events are JSONL records tagged with a category; each category can be
    enabled independently.  Two sinks run simultaneously: a bounded
    in-memory ring buffer (cheap enough to leave on under bench; drained
    with {!drain}) and an optional JSONL file ([--trace-out FILE] /
    [JIT_TRACE_OUT]).  Events carry a monotonic sequence number rather
    than a timestamp, so traces are deterministic across runs.

    Category spec strings are comma-separated names; ["all"], ["1"] and
    ["true"] enable everything (the legacy [JIT_TRACE=1] spelling). *)

type category =
  | Translate        (** a translation was compiled and published *)
  | Retranslate      (** retranslate-all ran (generation bump) *)
  | Link             (** a ReqBind exit was smashed / invalidated; arcs *)
  | Exit             (** compiled code left through an exit *)
  | Guard            (** an entry's guard validation failed *)
  | Lease            (** write-lease activity: lazy in-burst drains *)

let all_categories = [ Translate; Retranslate; Link; Exit; Guard; Lease ]

let category_name = function
  | Translate -> "translate"
  | Retranslate -> "retranslate-all"
  | Link -> "link"
  | Exit -> "exit"
  | Guard -> "guard"
  | Lease -> "lease"

let category_of_name (s : string) : category option =
  match String.lowercase_ascii (String.trim s) with
  | "translate" -> Some Translate
  | "retranslate-all" | "retranslate_all" | "retranslate" -> Some Retranslate
  | "link" -> Some Link
  | "exit" -> Some Exit
  | "guard" -> Some Guard
  | "lease" -> Some Lease
  | _ -> None

let idx = function
  | Translate -> 0 | Retranslate -> 1 | Link -> 2 | Exit -> 3 | Guard -> 4
  | Lease -> 5

let enabled_ = Array.make 6 false

(** Is this category live?  Probes check this before building any fields. *)
let on (c : category) : bool = enabled_.(idx c)

(* ------------------------------------------------------------------ *)
(* Sinks                                                               *)
(* ------------------------------------------------------------------ *)

let default_ring_capacity = 4096

let ring : string array ref = ref (Array.make default_ring_capacity "")
let ring_len = ref 0          (* live events, <= capacity *)
let ring_head = ref 0         (* next write position *)
let seq = ref 0
let dropped = ref 0           (* events overwritten in the ring *)

let out : (string * out_channel) option ref = ref None

let push_ring (line : string) =
  let cap = Array.length !ring in
  !ring.(!ring_head) <- line;
  ring_head := (!ring_head + 1) mod cap;
  if !ring_len < cap then incr ring_len else incr dropped

(** Oldest-first contents of the ring buffer. *)
let drain () : string list =
  let cap = Array.length !ring in
  let start = (!ring_head - !ring_len + cap * 2) mod cap in
  List.init !ring_len (fun i -> !ring.((start + i) mod cap))

let events_emitted () = !seq
let events_dropped () = !dropped

(* ------------------------------------------------------------------ *)
(* Emission                                                            *)
(* ------------------------------------------------------------------ *)

type field =
  | I of int
  | S of string
  | B of bool
  | F of float

let field_json = function
  | I n -> string_of_int n
  | S s -> Printf.sprintf "\"%s\"" (Vmstats.json_escape s)
  | B b -> if b then "true" else "false"
  | F f -> Printf.sprintf "%.6g" f

(* ------------------------------------------------------------------ *)
(* Per-task buffering (parallel compile)                               *)
(* ------------------------------------------------------------------ *)

(** Events emitted inside a parallel compile task are buffered on the
    worker's domain *without* sequence numbers; the main domain flushes
    the buffers in publish order and assigns seq at flush time.  Trace
    output is therefore byte-identical for any worker count: seq follows
    the deterministic publish order, never the racey completion order. *)
type buffered = (category * (string * field) list) list

let empty_buffer : buffered = []

let buffer_key : (category * (string * field) list) list ref option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

(** Start buffering this domain's events (one call per task). *)
let buffer_begin () : unit = Domain.DLS.set buffer_key (Some (ref []))

(** Stop buffering and return the task's events in emission order. *)
let buffer_take () : buffered =
  match Domain.DLS.get buffer_key with
  | Some b ->
    Domain.DLS.set buffer_key None;
    List.rev !b
  | None -> []

(* Serializes the unbuffered path: serving workers emit guard, exit and
   link events concurrently, and [seq], the ring and the file sink are
   shared. *)
let mutex = Mutex.create ()

(** Emit one event: into this domain's task buffer while a compile task
    runs, else straight to the sinks.  Call only under [on cat] so field
    lists are never built for disabled categories. *)
let emit (cat : category) (fields : (string * field) list) : unit =
  match Domain.DLS.get buffer_key with
  | Some b -> b := (cat, fields) :: !b
  | None ->
    Mutex.protect mutex (fun () ->
        let buf = Buffer.create 96 in
        Buffer.add_string buf
          (Printf.sprintf "{\"seq\": %d, \"cat\": \"%s\"" !seq
             (category_name cat));
        List.iter
          (fun (k, v) ->
             Buffer.add_string buf
               (Printf.sprintf ", \"%s\": %s" (Vmstats.json_escape k)
                  (field_json v)))
          fields;
        Buffer.add_string buf "}";
        incr seq;
        let line = Buffer.contents buf in
        push_ring line;
        match !out with
        | Some (_, oc) -> output_string oc line; output_char oc '\n'
        | None -> ())

(** Replay a task's buffered events through the normal sinks, assigning
    sequence numbers now.  In publish order, once the task's domain has
    been joined. *)
let flush_buffered (b : buffered) : unit =
  List.iter (fun (cat, fields) -> emit cat fields) b

(* ------------------------------------------------------------------ *)
(* Configuration                                                       *)
(* ------------------------------------------------------------------ *)

(** Parse a category spec into the category list it enables. *)
let parse_spec (spec : string) : category list =
  match String.lowercase_ascii (String.trim spec) with
  | "" | "0" | "none" | "off" | "false" -> []
  | "all" | "1" | "true" -> all_categories
  | s ->
    String.split_on_char ',' s |> List.filter_map category_of_name

let close () =
  match !out with
  | Some (_, oc) -> flush oc; close_out oc; out := None
  | None -> ()

let reset_ring () =
  ring_len := 0;
  ring_head := 0;
  seq := 0;
  dropped := 0

(** (Re)configure tracing: [spec] selects categories (None = all off),
    [path] adds a JSONL file sink (truncated unless already open to the
    same path).  The ring and sequence counter restart, so each engine
    install begins a fresh trace. *)
let configure ?(ring_capacity = default_ring_capacity) ~(spec : string option)
    ?(path : string option) () : unit =
  Array.fill enabled_ 0 (Array.length enabled_) false;
  (match spec with
   | Some s -> List.iter (fun c -> enabled_.(idx c) <- true) (parse_spec s)
   | None -> ());
  if Array.length !ring <> ring_capacity then ring := Array.make ring_capacity "";
  reset_ring ();
  match path, !out with
  | Some p, Some (cur, _) when cur = p -> ()     (* keep appending *)
  | Some p, _ -> close (); out := Some (p, open_out p)
  | None, _ -> close ()
