(* Autotuner tests: genome operators preserve validity (qcheck), the GA
   is deterministic regardless of the domain count, the fitness cache
   prevents re-simulation, and parameterized sequences round-trip
   through their textual form. *)

(* Seed QCheck's Random.State from Cs_util.Rng so `dune runtest` is
   bit-reproducible (to_alcotest's default state is self_init'd). *)
let to_alcotest test =
  let rng = Cs_util.Rng.create 0xB17_5EED in
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make (Array.init 8 (fun _ -> Cs_util.Rng.int rng 0x3FFFFFFF)))
    test

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let vliw4 = Cs_machine.Vliw.create ~n_clusters:4 ()
let raw4 = Cs_machine.Raw.with_tiles 4

(* --- sequence serialization (satellite: of_name dropped parameters) --- *)

let test_sequence_param_roundtrip () =
  let spec = "LEVEL=stride=2:boost=3.5" in
  match Cs_core.Sequence.of_names [ spec ] with
  | Error msg -> Alcotest.fail msg
  | Ok passes ->
    check_string "non-default params re-emitted" spec
      (String.concat "," (Cs_core.Sequence.names passes));
    let p = List.hd passes in
    Alcotest.(check (option (float 1e-9))) "stride stored" (Some 2.0)
      (Cs_core.Pass.param p "stride");
    Alcotest.(check (option (float 1e-9))) "boost stored" (Some 3.5)
      (Cs_core.Pass.param p "boost")

let test_sequence_default_emits_bare_names () =
  let emitted = Cs_core.Sequence.names (Cs_core.Sequence.vliw_default ()) in
  List.iter
    (fun name ->
      check_bool (Printf.sprintf "%s has no params" name) false (String.contains name '='))
    emitted;
  (* defaults parse back to themselves *)
  match Cs_core.Sequence.of_names emitted with
  | Error msg -> Alcotest.fail msg
  | Ok passes ->
    Alcotest.(check (list string)) "round trip" emitted (Cs_core.Sequence.names passes)

let test_sequence_rejects_bad_specs () =
  let is_error = function Error _ -> true | Ok _ -> false in
  check_bool "unknown pass" true (is_error (Cs_core.Sequence.of_spec "NOPASS"));
  check_bool "unknown key" true (is_error (Cs_core.Sequence.of_spec "LEVEL=frob=1"));
  check_bool "bad value" true (is_error (Cs_core.Sequence.of_spec "LEVEL=stride=abc"));
  (* float_of_string accepts nan/inf, and a LEVEL stride below 1 never
     advances through the depth groups: all are refused at parse time. *)
  List.iter
    (fun spec -> check_bool spec true (is_error (Cs_core.Sequence.of_spec spec)))
    [ "LEVEL=stride=0"; "LEVEL=stride=nan"; "LEVEL=stride=-3"; "LEVEL=stride=0.5";
      "LEVEL=stride=inf"; "LEVEL=stride=1e30"; "PATH=boost=nan"; "NOISE=amplitude=-inf";
      (* Weights.blend refuses keep = 1 - blend_keep outside [0, 1]. *)
      "PATHPROP=blend_keep=2"; "PATHPROP=blend_keep=-0.5"; "PATHPROP=blend_keep=1.0001" ];
  List.iter
    (fun spec -> check_bool spec false (is_error (Cs_core.Sequence.of_spec spec)))
    [ "PATHPROP=blend_keep=0"; "PATHPROP=blend_keep=1"; "PATHPROP=blend_keep=0.05" ];
  (* A key given twice is refused in either order, not resolved to one
     of the two values; so are values outside the declared domains. *)
  List.iter
    (fun spec -> check_bool spec true (is_error (Cs_core.Sequence.of_spec spec)))
    [ "LEVEL=stride=2:stride=3"; "LEVEL=stride=3:stride=2"; "LEVEL=stride=2.9";
      "CHAOS=mode=2.7"; "CHAOS=mode=6"; "PLACEPROP=weighted=7"; "COMM=grand=0.5";
      "EMPHCP=factor=-1"; "COMM=eps=-1"; "COMM=eps=0"; "REGPRESS=registers_per_cluster=-1";
      "FIRST=factor=0"; "PLACE=factor=0"; "PATH=boost=0"; "CLUSTER=boost=0"; "LEVEL=boost=0";
      "PLACE=live_in_factor=-1"; "COMM=strengthen_preferred=1e308";
      "COMM=grand_weight=1e308"; "PATH=confidence_threshold=0.5" ];
  List.iter
    (fun spec -> check_bool spec false (is_error (Cs_core.Sequence.of_spec spec)))
    [ "EMPHCP=factor=0"; "NOISE=amplitude=0"; "PLACE=live_in_factor=0"; "CHAOS=mode=5";
      "PATH=confidence_threshold=1e12" ];
  check_bool "in a sequence" true
    (is_error (Cs_core.Sequence.of_names [ "INITTIME"; "LEVEL=stride=0" ]));
  check_bool "stride 1 ok" false (is_error (Cs_core.Sequence.of_spec "LEVEL=stride=1"));
  (* The typed constructors go through the same check. *)
  Alcotest.check_raises "Level.pass stride 0"
    (Invalid_argument
       "LEVEL: parameter stride=0 is out of range (want 1 <= stride <= 1073741824)")
    (fun () -> ignore (Cs_core.Level.pass ~stride:0 ()));
  check_bool "case-insensitive ok" false (is_error (Cs_core.Sequence.of_spec "level=stride=2"))

(* --- genome validity under mutation/crossover (qcheck) --- *)

let genome_gen =
  QCheck.Gen.(
    map3
      (fun seed n_mut on_raw -> (seed, n_mut, on_raw))
      (int_bound 100_000) (int_bound 25) bool)

let materialize (seed, n_mut, on_raw) =
  let rng = Cs_util.Rng.create seed in
  let g = ref (Cs_tuner.Genome.of_machine (if on_raw then raw4 else vliw4)) in
  for _ = 1 to n_mut do
    g := Cs_tuner.Genome.mutate rng !g
  done;
  (rng, !g)

let print_genome (seed, n_mut, on_raw) =
  Printf.sprintf "seed=%d n_mut=%d machine=%s" seed n_mut (if on_raw then "raw" else "vliw")

let arbitrary_genome = QCheck.make ~print:print_genome genome_gen

(* Every gene parameter inside its declared tuning range, as
   genome.mli promises. *)
let in_tuning_range (g : Cs_tuner.Genome.gene) =
  let decl = Option.get (Cs_core.Sequence.find g.pass) in
  List.for_all
    (fun (k, v) ->
      let p = List.find (fun p -> p.Cs_core.Pass.key = k) decl.Cs_core.Pass.params in
      let lo, hi = p.Cs_core.Pass.tune in
      lo <= v && v <= hi)
    g.params

let valid g =
  let n = List.length g in
  n >= Cs_tuner.Genome.min_length
  && n <= Cs_tuner.Genome.max_length
  && List.for_all in_tuning_range g
  &&
  match Cs_core.Sequence.of_names (String.split_on_char ',' (Cs_tuner.Genome.to_string g)) with
  | Ok _ -> true
  | Error _ -> false

let prop_mutation_valid =
  QCheck.Test.make ~count:200 ~name:"mutated genomes stay parseable and in bounds"
    arbitrary_genome (fun params ->
      let _, g = materialize params in
      valid g)

(* Genomes whose every parameter sits at one end of its tuning range:
   each perturbation then pushes half the time toward the outside, so
   the clamps must hold. *)
let test_mutation_at_range_ends () =
  List.iter
    (fun name ->
      let decl = Option.get (Cs_core.Sequence.find name) in
      List.iter
        (fun pick ->
          let gene =
            { Cs_tuner.Genome.pass = name;
              params =
                List.map
                  (fun (p : Cs_core.Pass.param) -> (p.key, pick p.Cs_core.Pass.tune))
                  decl.Cs_core.Pass.params }
          in
          let start =
            Cs_tuner.Genome.default_gene "INITTIME"
            :: List.init (Cs_tuner.Genome.max_length - 1) (fun _ -> gene)
          in
          let rng = Cs_util.Rng.create 3 in
          let g = ref start in
          for _ = 1 to 60 do
            g := Cs_tuner.Genome.mutate rng !g;
            if not (valid !g) then
              Alcotest.failf "%s left its range: %s" name (Cs_tuner.Genome.to_string !g)
          done)
        [ fst; snd ])
    (List.filter
       (fun name -> (Option.get (Cs_core.Sequence.find name)).Cs_core.Pass.params <> [])
       Cs_tuner.Genome.gene_pool)

let prop_crossover_valid =
  QCheck.Test.make ~count:200 ~name:"crossover yields parseable genomes in bounds"
    arbitrary_genome (fun params ->
      let rng, a = materialize params in
      let b = ref a in
      for _ = 1 to 5 do
        b := Cs_tuner.Genome.mutate rng !b
      done;
      valid (Cs_tuner.Genome.crossover rng a !b))

let prop_genome_string_roundtrip =
  QCheck.Test.make ~count:200 ~name:"of_string (to_string g) = Ok g" arbitrary_genome
    (fun params ->
      let _, g = materialize params in
      match Cs_tuner.Genome.of_string (Cs_tuner.Genome.to_string g) with
      | Ok g' -> Cs_tuner.Genome.equal g g'
      | Error _ -> false)

(* --- fitness cache --- *)

let tiny_suite () =
  List.filter_map Cs_workloads.Suite.find [ "vvmul"; "fir" ]

let test_cache_prevents_reevaluation () =
  let fit = Cs_tuner.Fitness.make ~machine:vliw4 (tiny_suite ()) in
  let g1 = Cs_tuner.Genome.of_machine vliw4 in
  let rng = Cs_util.Rng.create 1 in
  let g2 = Cs_tuner.Genome.mutate rng g1 in
  (* duplicates inside one batch are simulated once *)
  let f = Cs_tuner.Fitness.eval fit [ g1; g2; g1; g1 ] in
  check_int "two unique genomes simulated" 2 (Cs_tuner.Fitness.evaluations fit);
  check_int "duplicates in batch served from cache" 2 (Cs_tuner.Fitness.cache_hits fit);
  Alcotest.(check (float 1e-12)) "duplicates agree" f.(0) f.(2);
  (* a later batch re-simulates nothing *)
  let f' = Cs_tuner.Fitness.eval fit [ g2; g1 ] in
  check_int "no new evaluations" 2 (Cs_tuner.Fitness.evaluations fit);
  check_int "all hits" 4 (Cs_tuner.Fitness.cache_hits fit);
  Alcotest.(check (float 1e-12)) "cached value stable" f.(1) f'.(0)

let test_fitness_positive_for_default () =
  let fit = Cs_tuner.Fitness.make ~machine:vliw4 (tiny_suite ()) in
  let f = Cs_tuner.Fitness.eval fit [ Cs_tuner.Genome.of_machine vliw4 ] in
  check_bool "default sequence has positive fitness" true (f.(0) > 0.0)

(* --- GA determinism across domain counts --- *)

let small_params domains =
  { Cs_tuner.Ga.default_params with population = 4; generations = 2; seed = 11; domains }

let run_ga domains =
  let fit = Cs_tuner.Fitness.make ~machine:vliw4 (tiny_suite ()) in
  Cs_tuner.Ga.run (small_params domains) fit

let test_ga_deterministic_across_domains () =
  let a = run_ga 1 and b = run_ga 3 in
  check_string "same best genome regardless of domain count"
    (Cs_tuner.Genome.to_string a.Cs_tuner.Ga.best)
    (Cs_tuner.Genome.to_string b.Cs_tuner.Ga.best);
  Alcotest.(check (float 1e-12)) "same best fitness" a.Cs_tuner.Ga.best_fitness
    b.Cs_tuner.Ga.best_fitness;
  check_int "same number of simulations" a.Cs_tuner.Ga.evaluations b.Cs_tuner.Ga.evaluations

let test_ga_never_worse_than_default () =
  let o = run_ga 1 in
  check_bool "elitism keeps the seeded default's score" true
    (o.Cs_tuner.Ga.best_fitness >= o.Cs_tuner.Ga.default_fitness)

let () =
  Alcotest.run "tuner"
    [
      ( "sequence",
        [ Alcotest.test_case "param round-trip" `Quick test_sequence_param_roundtrip;
          Alcotest.test_case "defaults emit bare names" `Quick
            test_sequence_default_emits_bare_names;
          Alcotest.test_case "bad specs rejected" `Quick test_sequence_rejects_bad_specs ] );
      ( "genome",
        List.map to_alcotest
          [ prop_mutation_valid; prop_crossover_valid; prop_genome_string_roundtrip ]
        @ [ Alcotest.test_case "mutation at range ends" `Quick
              test_mutation_at_range_ends ] );
      ( "fitness",
        [ Alcotest.test_case "cache prevents re-evaluation" `Quick
            test_cache_prevents_reevaluation;
          Alcotest.test_case "default fitness positive" `Quick
            test_fitness_positive_for_default ] );
      ( "ga",
        [ Alcotest.test_case "deterministic across domains" `Slow
            test_ga_deterministic_across_domains;
          Alcotest.test_case "never worse than default" `Slow
            test_ga_never_worse_than_default ] );
    ]
