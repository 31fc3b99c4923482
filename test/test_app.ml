(* Run-spec and session tests: the checkpoint-metadata codec round-trips
   every spec exactly (floats by bit pattern) and refuses every damaged
   input with a diagnostic; checkpoints of serve-shaped runs replay to
   the uninterrupted run's final state; the paced-cable protocol keeps
   serve's stimulus. *)

module Spec = App.Spec
module Session = App.Session
module R = Obs.Recorder

(* -- generators -------------------------------------------------------- *)

let float_gen = Test_recorder.float_bits_gen

let tissue_gen : Spec.tissue QCheck.Gen.t =
  QCheck.Gen.(
    let* nx = int_range 2 64 and* ny = int_range 1 8 in
    let* dx = float_gen and* sigma = float_gen in
    let* splitting = oneofl Tissue.Monodomain.[ Godunov; Strang ] in
    let* protocol = oneofl Spec.[ S1; S1s2; Restitution; S1_paced ] in
    let* stim_width = int_range 0 10 and* s1_count = int_range 0 6 in
    let* s2_start = float_gen and* s1_interval = float_gen in
    let* s2_coupling = float_gen and* block_check = float_gen in
    return
      { Spec.nx; ny; dx; sigma; splitting; protocol; stim_width; s2_start;
        s1_count; s1_interval; s2_coupling; block_check })

let spec_gen : Spec.t QCheck.Gen.t =
  QCheck.Gen.(
    let* model =
      oneofl
        (List.map (fun (e : Models.Model_def.entry) -> e.name) Models.Registry.all)
    in
    let* width = oneofl [ 1; 2; 4; 8 ] in
    let* layout = oneofl [ ""; "aos"; "soa"; "aosoa4" ] in
    let* no_lut = bool and* autovec = bool and* spline = bool in
    let* engine = oneofl Spec.engines in
    let* tile = int_range 0 16 and* specialize = bool in
    let* threads = int_range 1 8 and* steps = int_range 0 1_000_000 in
    let* dt = float_gen in
    let* population =
      oneof [ map (fun n -> Spec.Cells n) (int_range 1 100_000);
              map (fun t -> Spec.Tissue t) tissue_gen ]
    in
    let* health =
      opt
        (map2
           (fun stride policy -> { Spec.stride; policy })
           (int_range 1 64)
           (oneofl Obs.Health.[ Warn; Abort ]))
    in
    let* checkpoint =
      opt
        (map2
           (fun stride keep -> { Spec.dir = "ck"; stride; keep })
           (int_range 1 1000) (int_range 1 5))
    in
    return
      { Spec.model; width; layout; no_lut; autovec; spline; engine; tile;
        specialize; threads; dt; steps; population; health; checkpoint })

let spec_arb =
  QCheck.make spec_gen ~print:(fun s ->
      String.concat "\n" (List.map (fun (k, v) -> k ^ "=" ^ v) (Spec.to_meta s)))

(* Structural equality with every float compared by bit pattern, so
   -0.0 and NaN payloads count. *)
let same_spec (a : Spec.t) (b : Spec.t) : bool =
  let bits = Int64.bits_of_float in
  let view (s : Spec.t) =
    let pop, fs =
      match s.population with
      | Cells _ -> (s.population, [])
      | Tissue t ->
          ( Spec.Tissue
              { t with dx = 0.; sigma = 0.; s2_start = 0.; s1_interval = 0.;
                       s2_coupling = 0.; block_check = 0. },
            List.map bits
              [ t.dx; t.sigma; t.s2_start; t.s1_interval; t.s2_coupling;
                t.block_check ] )
    in
    ({ s with dt = 0.; population = pop }, bits s.dt :: fs)
  in
  view a = view b

(* -- codec properties --------------------------------------------------- *)

let roundtrip =
  Helpers.qtest ~count:300 "of_meta (to_meta s) = s, floats by bits" spec_arb
    (fun s ->
      match Spec.of_meta (Spec.to_meta s) with
      | Error d ->
          QCheck.Test.fail_reportf "of_meta failed: %s"
            (Easyml.Diag.to_string ~file:"<meta>" d)
      | Ok s' -> same_spec s' { s with health = None; checkpoint = None })

let garbage_gen : string QCheck.Gen.t =
  QCheck.Gen.(map (fun s -> "?" ^ s) (string_size ~gen:printable (int_range 0 8)))

let damaged_meta_is_an_error =
  Helpers.qtest ~count:100 "any dropped key or garbage value is an Error"
    QCheck.(pair spec_arb (make garbage_gen))
    (fun (s, garbage) ->
      let meta = Spec.to_meta s in
      let refused m =
        match Spec.of_meta m with
        | Error d -> d.Easyml.Diag.code = "checkpoint-meta"
        | Ok _ -> false
      in
      List.for_all
        (fun (key, _) ->
          refused (List.remove_assoc key meta)
          && refused
               (List.map (fun (k, v) -> (k, if k = key then garbage else v)) meta))
        meta)

(* -- protocol ------------------------------------------------------------ *)

let test_paced_cable_stimulus () =
  (* serve --tissue's stimulus: the x < 5 strip paced every 1000 ms *)
  List.iter
    (fun n ->
      let ts = Spec.paced_cable ~cells:n in
      let geom = Spec.geometry ts in
      let got = Spec.protocol ts geom in
      let pulse =
        Sim.Stim.make ~amplitude:80.0 ~start:1.0 ~duration:2.0 ~period:1000.0 ()
      in
      let n = Tissue.Geometry.cells geom in
      let want = [ Sim.Stim.region pulse ~n ~lo:0 ~hi:(min 5 n) ] in
      Alcotest.(check string) "name" "s1-paced" got.Tissue.Protocol.name;
      for cell = 0 to n - 1 do
        List.iter
          (fun t ->
            let want =
              Tissue.Protocol.current { name = "s1-paced"; stims = want } ~t ~cell
            in
            Alcotest.(check int64) "same stimulus" (Int64.bits_of_float want)
              (Int64.bits_of_float (Tissue.Protocol.current got ~t ~cell)))
          [ 0.0; 1.0; 1.5; 2.99; 3.0; 1001.0; 1002.5; 2001.0 ]
      done)
    [ 1; 3; 16 ]

(* -- serve-shaped checkpoints replay -------------------------------------- *)

let serve_spec ~model ~no_lut population ~dir : Spec.t =
  {
    Spec.model;
    width = 8;
    layout = "";
    no_lut;
    autovec = false;
    spline = false;
    engine = Sim.Driver.Fused;
    tile = 0;
    specialize = true;
    threads = 1;
    dt = 0.01;
    steps = 300;
    population;
    health = Some { Spec.stride = 16; policy = Obs.Health.Warn };
    checkpoint = Some { Spec.dir; stride = 100; keep = 3 };
  }

let create (spec : Spec.t) : Session.t =
  match Session.create spec with
  | Ok s -> s
  | Error d -> Alcotest.fail (Easyml.Diag.to_string ~file:spec.model d)

(* Run the spec the way serve does (its own stop predicate, so signals
   stay the caller's), then resume from [from] and finish: the digests
   must agree. *)
let check_replay ~model ~no_lut ~from population =
  Test_recorder.with_temp_dir (fun dir ->
      let spec = serve_spec ~model ~no_lut population ~dir in
      let s = create spec in
      (match Session.run ~stop:(fun () -> false) s ~steps:spec.steps with
      | Ok n -> Alcotest.(check int) "steps run" spec.steps n
      | Error f -> Alcotest.fail f.message);
      let want = Session.digest s in
      let file = Filename.concat dir (Printf.sprintf "checkpoint-%012d.ckpt" from) in
      match Session.resume ~threads:1 file with
      | Error d -> Alcotest.fail (Easyml.Diag.to_string ~file d)
      | Ok (r, remaining) ->
          Alcotest.(check int) "remaining" (spec.steps - from) remaining;
          Alcotest.(check bool) "replay writes nothing" true
            (Session.writer r = None);
          (match Session.run r ~steps:remaining with
          | Ok _ -> ()
          | Error f -> Alcotest.fail f.message);
          Alcotest.(check string) "replayed digest" want (Session.digest r))

let test_serve_no_lut_replays () =
  check_replay ~model:"Courtemanche" ~no_lut:true ~from:200 (Spec.Cells 16)

let test_serve_tissue_replays () =
  check_replay ~model:"MitchellSchaeffer" ~no_lut:false ~from:100
    (Spec.Tissue (Spec.paced_cable ~cells:16))

let test_resume_refuses_damaged_metadata () =
  (* every run-metadata line removed in turn: a diagnostic, never an
     exception *)
  Test_recorder.with_temp_dir (fun dir ->
      let spec =
        serve_spec ~model:"MitchellSchaeffer" ~no_lut:false (Spec.Cells 4) ~dir
      in
      let s = create { spec with steps = 100; health = None } in
      ignore (Session.run ~stop:(fun () -> false) s ~steps:100);
      let file = Filename.concat dir "checkpoint-000000000100.ckpt" in
      let ck = Result.get_ok (R.read file) in
      List.iter
        (fun (key, _) ->
          let damaged = Filename.concat dir "damaged.ckpt" in
          ignore
            (R.write ~path:damaged
               { ck with R.ck_meta = List.remove_assoc key ck.R.ck_meta });
          match Session.resume ~threads:1 damaged with
          | Ok _ -> Alcotest.failf "resume without %s succeeded" key
          | Error _ -> ())
        (Spec.to_meta spec))

(* An unknown model name is a structured diagnostic from both the loader
   and the session, never an exception. *)
let test_unknown_model_diagnostic () =
  let expect what = function
    | Ok _ -> Alcotest.failf "%s: unknown model loaded" what
    | Error (d : Easyml.Diag.t) ->
        Alcotest.(check string) (what ^ " code") "unknown-model" d.code;
        Alcotest.(check bool) (what ^ " is an error") true (Easyml.Diag.is_error d);
        Alcotest.(check bool) (what ^ " names the model") true
          (Helpers.contains d.message "NoSuchModel")
  in
  expect "load_model" (Spec.load_model "NoSuchModel");
  let spec =
    serve_spec ~model:"NoSuchModel" ~no_lut:false (Spec.Cells 4) ~dir:"unused"
  in
  expect "Session.create" (Session.create { spec with checkpoint = None })

(* Out-of-range numeric inputs are one [invalid-argument] diagnostic from
   [Session.create] — for run, tissue and serve alike, and for a replay
   asking for zero threads — never an exception from inside the driver.
   Thread counts stay small: a bad value must be refused before any
   Domain starts. *)
let test_bad_inputs_are_diagnostics () =
  let base =
    {
      (serve_spec ~model:"MitchellSchaeffer" ~no_lut:false (Spec.Cells 4)
         ~dir:"unused")
      with
      health = None;
      checkpoint = None;
    }
  in
  let cable = Spec.paced_cable ~cells:16 in
  let expect what r =
    match r with
    | Ok _ -> Alcotest.failf "%s: accepted" what
    | Error (d : Easyml.Diag.t) ->
        Alcotest.(check string) (what ^ " code") "invalid-argument" d.code;
        Alcotest.(check bool) (what ^ " is an error") true
          (Easyml.Diag.is_error d)
  in
  List.iter
    (fun (what, spec) -> expect what (Session.create spec))
    [
      ("--cells 0", { base with population = Spec.Cells 0 });
      ("--dt 0", { base with dt = 0.0 });
      ("--dt nan", { base with dt = Float.nan });
      ("--threads 0", { base with threads = 0 });
      ("-w 0", { base with width = 0 });
      ("--tile -1", { base with tile = -1 });
      ("--steps -1", { base with steps = -1 });
      ( "--checkpoint-stride 0",
        { base with checkpoint = Some { Spec.dir = "unused"; stride = 0; keep = 3 } } );
      ( "tissue --threads 0",
        { base with threads = 0; population = Spec.Tissue cable } );
      ( "tissue --nx 1",
        { base with population = Spec.Tissue { cable with nx = 1 } } );
      ( "tissue --dx 0",
        { base with population = Spec.Tissue { cable with dx = 0.0 } } );
    ];
  Test_recorder.with_temp_dir (fun dir ->
      let s =
        create
          { base with steps = 100;
                      checkpoint = Some { Spec.dir; stride = 100; keep = 1 } }
      in
      ignore (Session.run ~stop:(fun () -> false) s ~steps:100);
      expect "replay --threads 0"
        (Session.resume ~threads:0
           (Filename.concat dir "checkpoint-000000000100.ckpt")))

let suite =
  [
    roundtrip;
    damaged_meta_is_an_error;
    Alcotest.test_case "paced cable keeps serve's stimulus" `Quick
      test_paced_cable_stimulus;
    Alcotest.test_case "serve --no-lut checkpoint replays" `Quick
      test_serve_no_lut_replays;
    Alcotest.test_case "serve --tissue checkpoint replays" `Quick
      test_serve_tissue_replays;
    Alcotest.test_case "resume refuses damaged metadata" `Quick
      test_resume_refuses_damaged_metadata;
    Alcotest.test_case "unknown model is a diagnostic" `Quick
      test_unknown_model_diagnostic;
    Alcotest.test_case "bad numeric inputs are diagnostics" `Quick
      test_bad_inputs_are_diagnostics;
  ]
