(** Fuzzing driver for the differential generator: run seed ranges
    outside the test harness, dump a seed's program, or run one seed
    under one mode.

        dune exec test/dbg_seeds.exe -- 1 500        # scan seeds
        dune exec test/dbg_seeds.exe -- show 42      # print program
        dune exec test/dbg_seeds.exe -- one 42 region
*)

open Fuzz_gen

let () =
  match Sys.argv.(1) with
  | "show" ->
    print_string (gen_program (int_of_string Sys.argv.(2)))
  | "one" ->
    let seed = int_of_string Sys.argv.(2) in
    let src = gen_program seed in
    let mode = match Sys.argv.(3) with
      | "interp" -> Core.Jit_options.Interp
      | "tracelet" -> Core.Jit_options.Tracelet
      | _ -> Core.Jit_options.Region
    in
    let out, leaks = run_mode mode ~retranslate:(Sys.argv.(3) = "region") src in
    Printf.printf "OUT=%s leaks=%d\n" out (List.length leaks)
  | from_s ->
    let from_ = int_of_string from_s and to_ = int_of_string Sys.argv.(2) in
    for seed = from_ to to_ do
      Printf.eprintf "seed %d...\n%!" seed;
      ignore (check_program seed)
    done;
    prerr_endline "ALL OK"
