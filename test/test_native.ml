(* Native (JIT-compiled C) engine tests: trajectory differential against
   the batched engine on the full model catalogue, qcheck differential of
   the C emitter vs. the closure engine on random lowered loops,
   parallel == sequential, artifact-cache accounting, and the failure
   paths (no toolchain, failing compiler, malformed C) — all of which
   must surface structured diagnostics or degrade, never crash.

   Every test that needs a C compiler skips cleanly when none is
   available (the suite still reports the availability status). *)

open Exec
module C = Codegen.Config
module B = Ir.Builder

let stim = Sim.Stim.make ~amplitude:40.0 ~start:0.5 ~duration:1.0 ()
let configs = [ ("scalar", C.baseline); ("vector", C.mlir ~width:8) ]
let ncells = 13

let have_cc () = Native.available ()

let skip_without_cc () =
  if not (have_cc ()) then
    Alcotest.skip ()

(* Documented ULP bound for the native-vs-OCaml differential: 0, i.e.
   bitwise.  Every libm call site in the emitted C routes to the same
   glibc entry point the OCaml engines call (OCaml's Float.exp etc. are
   direct externs), FMA contraction is disabled (-ffp-contract=off),
   float constants are emitted as exact hex literals and the GNU vector
   lowering keeps every lane's operation sequence, so the 43-model sweep
   (scalar and the CLI's default width 8) matches the batched engine
   bit for bit.  A C toolchain with a different libm than the OCaml
   runtime's would break this — that is a real divergence to report,
   not noise to absorb. *)
let native_ulp_bound = 0L

let ulp_diff (a : float) (b : float) : int64 =
  if Float.is_nan a && Float.is_nan b then 0L
  else if Float.is_nan a || Float.is_nan b then Int64.max_int
  else
    (* map to a monotone integer line so adjacent floats differ by 1 *)
    let line x =
      let bits = Int64.bits_of_float x in
      if Int64.compare bits 0L < 0 then Int64.sub Int64.min_int bits else bits
    in
    Int64.abs (Int64.sub (line a) (line b))

let check_snapshots_ulp ~ctx a b =
  List.iter2
    (fun (n, x) (_, y) ->
      if not (Float.is_finite x) then Alcotest.failf "%s: %s not finite" ctx n;
      let d = ulp_diff x y in
      if Int64.compare d native_ulp_bound > 0 then
        Alcotest.failf "%s: %s differs by %Ld ULP: %.17g vs %.17g" ctx n d x y)
    a b

(* -- 43-model trajectory differential ----------------------------------- *)

(* native == batched within the documented ULP bound (bitwise) on every
   model, scalar and at the CLI's default width 8 (the configuration the
   paced-native benchmark compiles; width 4 stays covered by the cubic
   LUT, parallel and random-loop cases), over a stimulated 50-step
   trajectory. *)
let test_all_models_native_vs_batched () =
  skip_without_cc ();
  List.iter
    (fun (e : Models.Model_def.entry) ->
      List.iter
        (fun (cname, cfg) ->
          let g =
            Codegen.Cache.generate_named cfg ~name:e.name (fun () ->
                Models.Registry.model e)
          in
          let run engine =
            let d = Sim.Driver.create ~engine g ~ncells ~dt:0.01 in
            for _ = 1 to 50 do
              Sim.Driver.step ~stim d
            done;
            (d, List.map (fun cell -> (cell, Sim.Driver.snapshot d cell)) [ 0; 6; 12 ])
          in
          let dn, native = run Sim.Driver.Native in
          if dn.Sim.Driver.engine <> Sim.Driver.Native then
            Alcotest.failf "%s/%s: native driver fell back unexpectedly"
              e.name cname;
          let _, batched = run Sim.Driver.Batched in
          List.iter2
            (fun (cell, a) (_, b) ->
              check_snapshots_ulp
                ~ctx:(Printf.sprintf "%s/%s cell %d" e.name cname cell)
                a b)
            native batched)
        configs)
    Models.Registry.all

(* The cubic-spline LUT path exercises the inlined Catmull-Rom helpers. *)
let test_cubic_lut_native () =
  skip_without_cc ();
  List.iter
    (fun name ->
      let cfg = { (C.mlir ~width:4) with C.lut_spline = true } in
      let e = Models.Registry.find_exn name in
      let g =
        Codegen.Cache.generate_named cfg ~name:e.Models.Model_def.name
          (fun () -> Models.Registry.model e)
      in
      let run engine =
        let d = Sim.Driver.create ~engine g ~ncells ~dt:0.01 in
        for _ = 1 to 50 do
          Sim.Driver.step ~stim d
        done;
        Sim.Driver.snapshot d 6
      in
      check_snapshots_ulp
        ~ctx:(name ^ " cubic native/batched")
        (run Sim.Driver.Native) (run Sim.Driver.Batched))
    [ "MitchellSchaeffer"; "LuoRudy91"; "TenTusscher" ]

(* Domain-parallel native stepping is bitwise identical to sequential:
   per-thread bindings marshal into private buffers and chunks are
   disjoint. *)
let test_parallel_identical () =
  skip_without_cc ();
  List.iter
    (fun name ->
      let e = Models.Registry.find_exn name in
      let g =
        Codegen.Cache.generate_named (C.mlir ~width:4)
          ~name:e.Models.Model_def.name (fun () -> Models.Registry.model e)
      in
      let mk () =
        Sim.Driver.create ~engine:Sim.Driver.Native g ~ncells:17 ~dt:0.01
      in
      let ds = mk () and dp = mk () in
      for _ = 1 to 50 do
        Sim.Driver.step ~stim ds;
        Sim.Driver.step ~nthreads:4 ~stim dp
      done;
      for cell = 0 to 16 do
        List.iter2
          (fun (n, x) (_, y) ->
            if not (Helpers.same_float x y) then
              Alcotest.failf "%s parallel cell %d: %s: %.17g vs %.17g" name
                cell n x y)
          (Sim.Driver.snapshot ds cell)
          (Sim.Driver.snapshot dp cell)
      done)
    [ "MitchellSchaeffer"; "LuoRudy91" ]

(* -- qcheck: C emitter vs. closure engine on random lowered loops ------- *)

let lower_loop ~(w : int) (e : Easyml.Ast.expr) : Ir.Func.modl =
  let m = Ir.Func.create_module "nat_loop" in
  let c = B.create_ctx () in
  Ir.Func.add_func m
    (B.func c ~name:"f"
       ~params:[ Ir.Ty.Memref; Ir.Ty.Memref; Ir.Ty.Memref; Ir.Ty.I64 ]
       ~results:[]
       (fun b args ->
         let in1 = List.nth args 0
         and in2 = List.nth args 1
         and out = List.nth args 2
         and n = List.nth args 3 in
         ignore
           (B.for_ b ~parallel:true ~lb:(B.consti b 0) ~ub:n
              ~step:(B.consti b w) ~inits:[]
              (fun ~iv ~iters:_ ->
                let x, y =
                  if w = 1 then
                    (B.load b ~mem:in1 ~idx:iv, B.load b ~mem:in2 ~idx:iv)
                  else
                    ( B.vec_load b ~width:w ~mem:in1 ~idx:iv,
                      B.vec_load b ~width:w ~mem:in2 ~idx:iv )
                in
                let env =
                  Codegen.Lower.make_env ~b ~width:w [ ("x", x); ("y", y) ]
                in
                let r = Codegen.Lower.lower_num env e in
                if w = 1 then B.store b r ~mem:out ~idx:iv
                else B.vec_store b ~vec:r ~mem:out ~idx:iv;
                []));
         B.ret b []));
  m

let stem_counter = ref 0

let run_native (m : Ir.Func.modl) ~(n : int) (in1 : floatarray)
    (in2 : floatarray) : floatarray =
  let tc = Option.get (Native.toolchain ()) in
  let src = Codegen.C_backend.emit_module m in
  incr stem_counter;
  let lib, _ms =
    Native.compile tc ~stem:(Printf.sprintf "t_loop_%d" !stem_counter) ~src
  in
  let f =
    Native.bind lib ~symbol:(Codegen.C_backend.symbol "f")
      ~params:[ Ir.Ty.Memref; Ir.Ty.Memref; Ir.Ty.Memref; Ir.Ty.I64 ]
  in
  let out = Float.Array.make n 0.0 in
  ignore (f [| Rt.M in1; Rt.M in2; Rt.M out; Rt.I n |]);
  out

let run_closure (m : Ir.Func.modl) ~(n : int) (in1 : floatarray)
    (in2 : floatarray) : floatarray =
  let out = Float.Array.make n 0.0 in
  ignore (Engine.run m "f" [| Rt.M in1; Rt.M in2; Rt.M out; Rt.I n |]);
  out

(* Each case invokes the C compiler once; keep the count moderate.  Each
   vector width has its own vector typedef, so each gets some cases. *)
let native_matches_closure_on_loops ~(w : int) ~count name =
  Helpers.qtest ~count name
    (Helpers.arbitrary_expr [ "x"; "y" ])
    (fun e ->
      (* vacuously true without a toolchain (the availability test below
         reports the status) *)
      have_cc ()
      = false
      ||
      (* raw lowered IR, deliberately unoptimized: constant-argument
         transcendentals survive to the emitter, exercising its volatile
         guard against the C compiler's own (correctly-rounded MPFR)
         compile-time libm *)
      let m = lower_loop ~w e in
      Ir.Verifier.verify_module_exn m;
      let n = 24 (* a multiple of every width *) in
      let in1 = Float.Array.init n (fun i -> Float.sin (float_of_int (i + 1)))
      and in2 = Float.Array.init n (fun i -> Float.cos (float_of_int i)) in
      let want = run_closure m ~n in1 in2 in
      let got = run_native m ~n in1 in2 in
      let ok = ref true in
      for i = 0 to n - 1 do
        if
          not
            (Helpers.same_float (Float.Array.get got i)
               (Float.Array.get want i))
        then ok := false
      done;
      !ok)

(* -- hand-built mask semantics ------------------------------------------ *)

(* Compares, masks and selects over lanes holding NaN (with a payload and
   negative), signed zeros and infinities; a mask lane extracted into a
   scalar i1 that feeds an scf.if and a scalar xor (which only works if
   the lane is normalized to 0/1); and splatted i1 constants through
   notb/andb/orb/xorb.  Verified IR has no vector constants — an i1 splat
   is a broadcast of a scalar constb — so that is the form covered. *)
let mask_module ~(w : int) ~(n : int) : Ir.Func.modl * int =
  let m = Ir.Func.create_module "masks" in
  let c = B.create_ctx () in
  let nout = ref 0 in
  Ir.Func.add_func m
    (B.func c ~name:"f"
       ~params:[ Ir.Ty.Memref; Ir.Ty.Memref; Ir.Ty.Memref; Ir.Ty.I64 ]
       ~results:[]
       (fun b args ->
         let in1 = List.nth args 0
         and in2 = List.nth args 1
         and out = List.nth args 2
         and ub = List.nth args 3 in
         ignore
           (B.for_ b ~lb:(B.consti b 0) ~ub ~step:(B.consti b w) ~inits:[]
              (fun ~iv ~iters:_ ->
                let x = B.vec_load b ~width:w ~mem:in1 ~idx:iv
                and y = B.vec_load b ~width:w ~mem:in2 ~idx:iv in
                let slot = ref 0 in
                let at () =
                  let k = !slot in
                  incr slot;
                  B.addi b iv (B.consti b (k * n))
                in
                let vstore v = B.vec_store b ~vec:v ~mem:out ~idx:(at ()) in
                let sstore v = B.store b v ~mem:out ~idx:(at ()) in
                let tt = B.broadcast b ~width:w (B.constb b true)
                and ff = B.broadcast b ~width:w (B.constb b false) in
                let lt = B.cmpf b Ir.Op.Lt x y
                and eq = B.cmpf b Ir.Op.Eq x y
                and ne = B.cmpf b Ir.Op.Ne x y
                and ge = B.cmpf b Ir.Op.Ge x y in
                let nlt = B.notb b lt in
                let m1 = B.andb b nlt tt in
                let m2 = B.orb b (B.binb b Ir.Op.BXor eq ne) ff in
                let m3 = B.binb b Ir.Op.BXor ge (B.notb b ff) in
                List.iter vstore
                  [
                    B.select b lt x y;
                    B.select b eq y x;
                    B.select b ne x y;
                    B.select b m1 x y;
                    B.select b m2 x y;
                    B.select b m3 y x;
                    B.select b ff x y;
                  ];
                (* lane extraction: a mask lane is 0/-1, a scalar i1 0/1 *)
                let e = B.vec_extract b nlt 1 in
                let r =
                  B.if_ b ~cond:e
                    ~then_:(fun () -> [ B.vec_extract b x (w - 1) ])
                    ~else_:(fun () -> [ B.constf b 42.0 ])
                in
                sstore (List.hd r);
                let flip = B.binb b Ir.Op.BXor e (B.constb b true) in
                sstore (B.select b flip (B.constf b 1.0) (B.constf b 2.0));
                (* and back: a scalar i1 splatted into a mask *)
                let back = B.broadcast b ~width:w (B.vec_extract b ge 0) in
                vstore (B.select b back x y);
                nout := !slot;
                []));
         B.ret b []));
  (m, !nout)

let test_mask_semantics () =
  skip_without_cc ();
  let nan_payload = Int64.float_of_bits 0x7ff8_0000_0000_0123L
  and neg_nan = Int64.float_of_bits 0xfff8_0000_0000_0000L in
  let xs =
    [| nan_payload; -0.0; Float.infinity; Float.neg_infinity; 1.0; neg_nan;
       0.0; 3.0 |]
  and ys =
    [| 1.0; 0.0; Float.neg_infinity; Float.infinity; Float.nan; 2.0; -0.0;
       3.0 |]
  in
  let n = Array.length xs in
  List.iter
    (fun w ->
      let m, nout = mask_module ~w ~n in
      Ir.Verifier.verify_module_exn m;
      let in1 = Float.Array.init n (Array.get xs)
      and in2 = Float.Array.init n (Array.get ys) in
      let run f =
        let out = Float.Array.make (nout * n) 0.0 in
        ignore (f [| Rt.M in1; Rt.M in2; Rt.M out; Rt.I n |]);
        out
      in
      let want = run (Engine.run m "f") in
      let tc = Option.get (Native.toolchain ()) in
      incr stem_counter;
      let lib, _ =
        Native.compile tc
          ~stem:(Printf.sprintf "t_masks_%d" !stem_counter)
          ~src:(Codegen.C_backend.emit_module m)
      in
      let got =
        run
          (Native.bind lib ~symbol:(Codegen.C_backend.symbol "f")
             ~params:[ Ir.Ty.Memref; Ir.Ty.Memref; Ir.Ty.Memref; Ir.Ty.I64 ])
      in
      Float.Array.iteri
        (fun i x ->
          let y = Float.Array.get got i in
          if Int64.bits_of_float x <> Int64.bits_of_float y then
            Alcotest.failf "w=%d out[%d] (slot %d, lane %d): %h (closure) vs \
                            %h (native)"
              w i (i / n) (i mod n) x y)
        want)
    [ 2; 4; 8 ]

(* The emitted unit keeps the IR's vectors: no per-value stack arrays,
   and lane loops only at the call sites with no vector form (16 for
   this unit; one loop per vector op would be hundreds). *)
let test_no_array_lowering () =
  let e = Models.Registry.find_exn "TenTusscher" in
  let g =
    Codegen.Cache.generate_named (C.mlir ~width:8) ~name:e.Models.Model_def.name
      (fun () -> Models.Registry.model e)
  in
  let src = Codegen.C_backend.emit_module g.Codegen.Kernel.modl in
  let lines = String.split_on_char '\n' src in
  let count p = List.length (List.filter p lines) in
  let starts_with pre l =
    let l = String.trim l in
    String.length l >= String.length pre
    && String.sub l 0 (String.length pre) = pre
  in
  let arrays =
    count (fun l ->
        starts_with "double v" l && String.ends_with ~suffix:"[8];" l)
  in
  Alcotest.(check int) "no double v..[8] declarations" 0 arrays;
  let loops = count (starts_with "for (int l") in
  if loops > 40 then Alcotest.failf "%d lane loops (at most 40)" loops

(* -- artifact cache ----------------------------------------------------- *)

let test_cache_accounting () =
  skip_without_cc ();
  let e = Models.Registry.find_exn "BeelerReuter" in
  let g =
    Codegen.Cache.generate_named (C.mlir ~width:4)
      ~name:e.Models.Model_def.name (fun () -> Models.Registry.model e)
  in
  Codegen.Cache.reset_stats ();
  let mk () =
    Sim.Driver.create ~engine:Sim.Driver.Native g ~ncells:7 ~dt:0.02
  in
  let d1 = mk () in
  Alcotest.(check bool) "first driver runs native" true
    (d1.Sim.Driver.engine = Sim.Driver.Native);
  let s1 = Codegen.Cache.stats () in
  Alcotest.(check bool) "first driver misses or hits a prior artifact" true
    (s1.Codegen.Cache.native_misses + s1.Codegen.Cache.native_hits >= 1);
  let d2 = mk () in
  ignore d2;
  let s2 = Codegen.Cache.stats () in
  Alcotest.(check bool) "second identical driver hits" true
    (s2.Codegen.Cache.native_hits > s1.Codegen.Cache.native_hits);
  Alcotest.(check int) "no recompile on the hit" s1.Codegen.Cache.native_misses
    s2.Codegen.Cache.native_misses;
  if s1.Codegen.Cache.native_misses > 0 then
    Alcotest.(check bool) "compiler time accounted" true
      (s2.Codegen.Cache.cc_ms > 0.0);
  Alcotest.(check bool) "describe_stats mentions native" true
    (Helpers.contains (Codegen.Cache.describe_stats ()) "native")

(* A second driver at a different cell count specializes to different
   run constants — different printed IR, so a fresh artifact, never a
   stale hit. *)
let test_cache_distinguishes_bindings () =
  skip_without_cc ();
  let e = Models.Registry.find_exn "BeelerReuter" in
  let g =
    Codegen.Cache.generate_named (C.mlir ~width:4)
      ~name:e.Models.Model_def.name (fun () -> Models.Registry.model e)
  in
  Codegen.Cache.reset_stats ();
  let d1 =
    Sim.Driver.create ~engine:Sim.Driver.Native g ~ncells:64 ~dt:0.005
  in
  let s1 = Codegen.Cache.stats () in
  let d2 =
    Sim.Driver.create ~engine:Sim.Driver.Native g ~ncells:96 ~dt:0.005
  in
  let s2 = Codegen.Cache.stats () in
  ignore (d1, d2);
  Alcotest.(check bool) "different ncells_pad compiles a fresh artifact" true
    (s2.Codegen.Cache.native_misses > s1.Codegen.Cache.native_misses)

(* -- failure paths ------------------------------------------------------ *)

let test_fallback_without_toolchain () =
  Native.with_toolchain None (fun () ->
      Alcotest.(check bool) "available() reports false" false
        (Native.available ());
      let e = Models.Registry.find_exn "MitchellSchaeffer" in
      let g =
        Codegen.Cache.generate_named (C.mlir ~width:4)
          ~name:e.Models.Model_def.name (fun () -> Models.Registry.model e)
      in
      (* no exception; the driver silently (minus one stderr warning)
         runs on the batched engine *)
      let d =
        Sim.Driver.create ~engine:Sim.Driver.Native g ~ncells:9 ~dt:0.01
      in
      Alcotest.(check bool) "fell back to batched" true
        (d.Sim.Driver.engine = Sim.Driver.Batched);
      Alcotest.(check bool) "no native lookup kept" true
        (d.Sim.Driver.native = None);
      for _ = 1 to 10 do
        Sim.Driver.step ~stim d
      done;
      Alcotest.(check bool) "fallback driver steps fine" true
        (Float.is_finite (Sim.Driver.vm d 0)))

let test_failing_compiler_diagnostic () =
  if not (Sys.file_exists "/bin/false") then Alcotest.skip ();
  Native.with_toolchain
    (Some { Native.cc = "/bin/false"; id = "/bin/false (test)" })
    (fun () ->
      let e = Models.Registry.find_exn "MitchellSchaeffer" in
      let g =
        Codegen.Cache.generate_named (C.mlir ~width:4)
          ~name:e.Models.Model_def.name (fun () -> Models.Registry.model e)
      in
      (match Codegen.Cache.native g with
      | Ok _ -> Alcotest.fail "a failing compiler produced an artifact"
      | Error diag ->
          Alcotest.(check string) "structured code" "cc-failed"
            diag.Easyml.Diag.code);
      (* and the driver still degrades instead of raising *)
      let d =
        Sim.Driver.create ~engine:Sim.Driver.Native g ~ncells:9 ~dt:0.01
      in
      Alcotest.(check bool) "fell back to batched" true
        (d.Sim.Driver.engine = Sim.Driver.Batched))

let test_malformed_c_compile_error () =
  skip_without_cc ();
  let tc = Option.get (Native.toolchain ()) in
  match Native.compile tc ~stem:"t_malformed" ~src:"int main( {" with
  | _ -> Alcotest.fail "malformed C compiled"
  | exception Native.Compile_error { status; log; file; _ } ->
      Alcotest.(check bool) "non-zero status" true (status <> 0);
      Alcotest.(check bool) "stderr captured" true (String.length log > 0);
      Alcotest.(check bool) "source kept for post-mortem" true
        (Sys.file_exists file)

let test_unsupported_ir_diagnostic () =
  (* vector-typed function parameters have no C lowering: the emitter
     must refuse with Unsupported (which Cache.native turns into a
     structured diagnostic), not emit wrong code *)
  let m = Ir.Func.create_module "bad" in
  let c = B.create_ctx () in
  Ir.Func.add_func m
    (B.func c ~name:"f"
       ~params:[ Ir.Ty.Vec (4, Ir.Ty.F64) ]
       ~results:[] (fun b _args -> B.ret b []));
  match Codegen.C_backend.emit_module m with
  | _ -> Alcotest.fail "vector parameter emitted"
  | exception Codegen.C_backend.Unsupported msg ->
      Alcotest.(check bool) "message names the problem" true
        (Helpers.contains msg "vector")

let test_availability_report () =
  (* not an assertion about the box — just surface the probe result in
     the test log so CI artifacts show which path ran *)
  (match Native.toolchain () with
  | Some tc -> Printf.printf "native toolchain: %s\n%!" tc.Native.id
  | None -> Printf.printf "native toolchain: none (native tests skipped)\n%!");
  ()

let suite =
  [
    Alcotest.test_case "toolchain availability" `Quick test_availability_report;
    Alcotest.test_case "all 43: native vs batched within ULP bound" `Slow
      test_all_models_native_vs_batched;
    Alcotest.test_case "cubic LUT inline helpers" `Quick test_cubic_lut_native;
    Alcotest.test_case "parallel native == sequential" `Quick
      test_parallel_identical;
    native_matches_closure_on_loops ~w:1 ~count:25
      "native == closure on random scalar loops";
    native_matches_closure_on_loops ~w:4 ~count:9
      "native == closure on random vector loops";
    native_matches_closure_on_loops ~w:2 ~count:8
      "native == closure on random w=2 loops";
    native_matches_closure_on_loops ~w:8 ~count:8
      "native == closure on random w=8 loops";
    Alcotest.test_case "mask semantics: native == closure bitwise" `Quick
      test_mask_semantics;
    Alcotest.test_case "TenTusscher w=8 unit uses vector types" `Quick
      test_no_array_lowering;
    Alcotest.test_case "artifact cache hits and accounting" `Quick
      test_cache_accounting;
    Alcotest.test_case "binding env distinguishes artifacts" `Quick
      test_cache_distinguishes_bindings;
    Alcotest.test_case "no toolchain: driver degrades to batched" `Quick
      test_fallback_without_toolchain;
    Alcotest.test_case "failing compiler: structured diagnostic" `Quick
      test_failing_compiler_diagnostic;
    Alcotest.test_case "malformed C: Compile_error with log" `Quick
      test_malformed_c_compile_error;
    Alcotest.test_case "unsupported IR: emitter refuses" `Quick
      test_unsupported_ir_diagnostic;
  ]
