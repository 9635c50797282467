(** Property-based differential testing over {!Fuzz_gen}'s random
    programs: the interpreter, the tracelet JIT, and the region JIT (before
    and after retranslate-all) must produce byte-identical output and a
    clean heap audit.

    This is the deepest correctness net in the repository: a single unsound
    optimization, wrong stack delta, bad guard, or refcount slip anywhere in
    the pipeline shows up as an output mismatch, a leak, or a double-free. *)

open Fuzz_gen

(* Deterministic seed stream: the same 60 programs are tested on every run
   (qcheck's global RNG is freshly seeded per process, which would make CI
   runs non-reproducible). *)
let next_seed = ref 0

let seed_gen =
  QCheck.Gen.map
    (fun () ->
       incr next_seed;
       !next_seed * 104729 mod 1_000_000)
    QCheck.Gen.unit

let qcheck_tests =
  [ QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"random programs agree across all modes"
         ~count:60
         (QCheck.make ~print:string_of_int seed_gen)
         check_program) ]

(* Pinned regression seeds: previously interesting programs stay covered. *)
let pinned =
  List.map
    (fun seed ->
       Alcotest.test_case (Printf.sprintf "pinned seed %d" seed) `Quick
         (fun () -> ignore (check_program seed)))
    [ 1; 42; 1337; 9999; 123456; 777777 ]

let suite = ("differential", qcheck_tests @ pinned)
