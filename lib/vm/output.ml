(** The VM's output buffer (echo / print).  Differential tests compare this
    buffer across execution modes.

    One buffer per domain (domain-local storage): parallel request serving
    captures each request's output on the domain that ran it, with no
    cross-domain interleaving.  Single-domain programs see exactly the old
    behavior — the main domain's buffer is created on first use. *)

let key : Buffer.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Buffer.create 1024)

let buf () : Buffer.t = Domain.DLS.get key

let write (s : string) = Buffer.add_string (buf ()) s

let reset () = Buffer.clear (buf ())

(** Capture the output produced by [f]. *)
let capture (f : unit -> 'a) : 'a * string =
  let b = buf () in
  let before = Buffer.length b in
  let r = f () in
  let s = Buffer.sub b before (Buffer.length b - before) in
  (r, s)
