(* Fused threaded-code engine tests: differential equivalence against the
   closure engine and the reference interpreter on the full model catalogue
   and on random straight-line IR, Domain-parallel determinism, and the
   shared compile cache. *)

open Exec
module K = Codegen.Kernel
module C = Codegen.Config
module B = Ir.Builder

let stim = Sim.Stim.make ~amplitude:40.0 ~start:0.5 ~duration:1.0 ()

(* The three code-generation points that matter for engine coverage:
   scalar AoS (baseline), vector AoSoA (contiguous vector loads/stores),
   vector AoS (the gather/scatter path). *)
let configs =
  [ ("scalar", C.baseline); ("aosoa", C.mlir ~width:4); ("aos-vec", C.autovec ~width:4) ]

let check_snapshots ~ctx a b =
  List.iter2
    (fun (n, x) (_, y) ->
      if not (Float.is_finite x) then Alcotest.failf "%s: %s not finite" ctx n;
      if not (Helpers.same_float x y) then
        Alcotest.failf "%s: mismatch on %s: %.17g vs %.17g" ctx n x y)
    a b

(* fused == closure == interpreter on all 43 models, 100 steps, both
   layouts.  Kernels come through the shared cache, so each model x config
   compiles once for all three engines. *)
let test_all_models_engines_agree () =
  List.iter
    (fun (e : Models.Model_def.entry) ->
      List.iter
        (fun (cname, cfg) ->
          let g = Codegen.Cache.generate_named cfg ~name:e.name (fun () ->
              Models.Registry.model e) in
          let mk engine = Sim.Driver.create ~engine g ~ncells:8 ~dt:0.01 in
          let df = mk Sim.Driver.Fused in
          let dc = mk Sim.Driver.Compiled in
          let dr = mk Sim.Driver.Reference in
          for _ = 1 to 100 do
            Sim.Driver.step ~stim df;
            Sim.Driver.step ~stim dc;
            Sim.Driver.step ~stim dr
          done;
          List.iter
            (fun cell ->
              let ctx = Printf.sprintf "%s/%s cell %d" e.name cname cell in
              let sf = Sim.Driver.snapshot df cell in
              check_snapshots ~ctx:(ctx ^ " fused/closure") sf
                (Sim.Driver.snapshot dc cell);
              check_snapshots ~ctx:(ctx ^ " fused/interp") sf
                (Sim.Driver.snapshot dr cell))
            [ 0; 5 ])
        configs)
    Models.Registry.all

(* Domain-parallel stepping must be bitwise-identical to sequential: the
   chunking only partitions AoSoA blocks, it never changes per-cell math. *)
let test_all_models_parallel_identical () =
  List.iter
    (fun (e : Models.Model_def.entry) ->
      let g = Codegen.Cache.generate_named (C.mlir ~width:4) ~name:e.name
          (fun () -> Models.Registry.model e) in
      let dp = Sim.Driver.create g ~ncells:16 ~dt:0.01 in
      let ds = Sim.Driver.create g ~ncells:16 ~dt:0.01 in
      for _ = 1 to 50 do
        Sim.Driver.step ~nthreads:4 ~stim dp;
        Sim.Driver.step ~stim ds
      done;
      for cell = 0 to 15 do
        check_snapshots
          ~ctx:(Printf.sprintf "%s parallel cell %d" e.name cell)
          (Sim.Driver.snapshot dp cell)
          (Sim.Driver.snapshot ds cell)
      done)
    Models.Registry.all

(* -- random straight-line IR ------------------------------------------- *)

let fused_scalar m x y =
  match Fused.run m "f" [| Rt.F x; Rt.F y |] with
  | [| Rt.F v |] -> v
  | _ -> Alcotest.fail "expected one f64 result"

let fused_matches_closure =
  Helpers.qtest ~count:300 "fused == closure on random scalar exprs"
    QCheck.(
      triple (Helpers.arbitrary_expr [ "x"; "y" ])
        (QCheck.float_range (-3.0) 3.0) (QCheck.float_range (-3.0) 3.0))
    (fun (e, x, y) ->
      let m = Test_engine.lower_scalar e in
      Ir.Verifier.verify_module_exn m;
      Helpers.same_float (fused_scalar m x y) (Test_engine.run_scalar m x y))

let fused_matches_interp =
  Helpers.qtest ~count:200 "fused == interpreter on random scalar exprs"
    QCheck.(
      triple (Helpers.arbitrary_expr [ "x"; "y" ])
        (QCheck.float_range (-3.0) 3.0) (QCheck.float_range (-3.0) 3.0))
    (fun (e, x, y) ->
      let m = Test_engine.lower_scalar e in
      Helpers.same_float (fused_scalar m x y) (Test_engine.interp_scalar m x y))

let fused_vector_matches_scalar =
  Helpers.qtest ~count:200 "fused vector lanes == fused scalar"
    (Helpers.arbitrary_expr [ "x"; "y" ])
    (fun e ->
      let w = 4 in
      let ms = Test_engine.lower_scalar e in
      let mv = Test_engine.lower_vector ~w e in
      Ir.Verifier.verify_module_exn mv;
      let xs = [| 0.5; -1.25; 2.0; -0.125 |] in
      let ys = [| 1.5; 0.25; -2.5; 3.0 |] in
      let vx = Float.Array.init w (fun i -> xs.(i)) in
      let vy = Float.Array.init w (fun i -> ys.(i)) in
      match Fused.run mv "f" [| Rt.VF vx; Rt.VF vy |] with
      | [| Rt.VF out |] ->
          Array.for_all Fun.id
            (Array.init w (fun i ->
                 Helpers.same_float (Float.Array.get out i)
                   (fused_scalar ms xs.(i) ys.(i))))
      | _ -> false)

(* -- load/store fusion windows ------------------------------------------ *)

let seeded_buf n = Float.Array.init n (fun i -> float_of_int (i + 1) /. 3.0)

let check_bufs ~ctx (a : floatarray) (b : floatarray) =
  for i = 0 to Float.Array.length a - 1 do
    if not (Helpers.same_float (Float.Array.get a i) (Float.Array.get b i))
    then
      Alcotest.failf "%s: buffer slot %d: %.17g vs %.17g" ctx i
        (Float.Array.get a i) (Float.Array.get b i)
  done

(* vec_load mem[0..3]; add; vec_store mem[1..4].  The windows overlap, so
   the load-op-store triple must NOT fuse into a VLos (which would
   interleave lane reads and writes); the footprint alias check keeps the
   full-width load ahead of the store. *)
let test_vlos_aliasing_not_fused () =
  let m = Ir.Func.create_module "alias" in
  let c = B.create_ctx () in
  let vec4 = Ir.Ty.Vec (4, Ir.Ty.F64) in
  Ir.Func.add_func m
    (B.func c ~name:"f" ~params:[ Ir.Ty.Memref; vec4 ] ~results:[ Ir.Ty.F64 ]
       (fun b args ->
         let mem = List.nth args 0 and y = List.nth args 1 in
         let v = B.vec_load b ~width:4 ~mem ~idx:(B.consti b 0) in
         let s = B.addf b v y in
         B.vec_store b ~vec:s ~mem ~idx:(B.consti b 1);
         B.ret b [ B.constf b 0.0 ]));
  Ir.Verifier.verify_module_exn m;
  let y = Float.Array.of_list [ 0.25; -1.5; 2.0; 0.125 ] in
  let bf = seeded_buf 8 and bi = seeded_buf 8 in
  ignore (Fused.run m "f" [| Rt.M bf; Rt.VF y |]);
  ignore (Interp.run m "f" [| Rt.M bi; Rt.VF y |]);
  check_bufs ~ctx:"aliasing load/store triple" bf bi

(* t = mulf a b feeds only the fusion window's middle op, so the pairing
   pass defers it into a VFma.  The VLos window around the same add must
   refuse to consume that add: doing so would leave the deferred multiply
   unemitted and read a stale slot. *)
let test_vlos_claimed_op_not_consumed () =
  let m = Ir.Func.create_module "claimed" in
  let c = B.create_ctx () in
  let vec4 = Ir.Ty.Vec (4, Ir.Ty.F64) in
  Ir.Func.add_func m
    (B.func c
       ~name:"f"
       ~params:[ Ir.Ty.Memref; vec4; vec4 ]
       ~results:[ Ir.Ty.F64 ]
       (fun b args ->
         let mem = List.nth args 0 in
         let a = List.nth args 1 and b2 = List.nth args 2 in
         let t = B.mulf b a b2 in
         let v = B.vec_load b ~width:4 ~mem ~idx:(B.consti b 0) in
         let s = B.addf b t v in
         B.vec_store b ~vec:s ~mem ~idx:(B.consti b 4);
         B.ret b [ B.constf b 0.0 ]));
  Ir.Verifier.verify_module_exn m;
  let va = Float.Array.of_list [ 1.5; -0.25; 3.0; 0.5 ] in
  let vb = Float.Array.of_list [ 2.0; 4.0; -1.0; 8.0 ] in
  let bf = seeded_buf 8 and bi = seeded_buf 8 in
  ignore (Fused.run m "f" [| Rt.M bf; Rt.VF va; Rt.VF vb |]);
  ignore (Interp.run m "f" [| Rt.M bi; Rt.VF va; Rt.VF vb |]);
  check_bufs ~ctx:"pair-claimed add in fusion window" bf bi

(* -- bounds-check elision ----------------------------------------------- *)

(* Eliding proved-inbounds checks must not change a single bit of any
   trajectory, on any model.  The batched engine is the only one that
   elides, so its elided and unelided drivers are compared. *)
let test_all_models_elide_bitwise_identical () =
  List.iter
    (fun (e : Models.Model_def.entry) ->
      List.iter
        (fun (cname, cfg) ->
          let g = Codegen.Cache.generate_named cfg ~name:e.name (fun () ->
              Models.Registry.model e) in
          let mk engine elide =
            Sim.Driver.create ~engine ~elide g ~ncells:8 ~dt:0.01
          in
          let drivers =
            [ mk Sim.Driver.Batched true; mk Sim.Driver.Batched false ]
          in
          for _ = 1 to 50 do
            List.iter (fun d -> Sim.Driver.step ~stim d) drivers
          done;
          match List.map (fun d -> Sim.Driver.snapshot d 5) drivers with
          | ref :: rest ->
              List.iteri
                (fun k s ->
                  check_snapshots
                    ~ctx:(Printf.sprintf "%s/%s elide variant %d" e.name
                            cname (k + 1))
                    ref s)
                rest
          | [] -> assert false)
        configs)
    Models.Registry.all

(* -- compile cache ------------------------------------------------------ *)

let test_cache_hit_bitwise_identical () =
  Codegen.Cache.clear ();
  let m = Models.Registry.model (Models.Registry.find_exn "LuoRudy91") in
  let cfg = C.mlir ~width:4 in
  let g1 = Codegen.Cache.generate cfg m in
  let g2 = Codegen.Cache.generate cfg m in
  let s = Codegen.Cache.stats () in
  Alcotest.(check int) "one miss" 1 s.Codegen.Cache.misses;
  Alcotest.(check int) "one hit" 1 s.Codegen.Cache.hits;
  Alcotest.(check bool) "hit returns the same kernel" true (g1 == g2);
  (* a cached kernel must execute bitwise-identically to a fresh compile *)
  let fresh = K.generate cfg m in
  let dc = Sim.Driver.create g2 ~ncells:8 ~dt:0.01 in
  let df = Sim.Driver.create fresh ~ncells:8 ~dt:0.01 in
  for _ = 1 to 50 do
    Sim.Driver.step ~stim dc;
    Sim.Driver.step ~stim df
  done;
  check_snapshots ~ctx:"cached vs fresh"
    (Sim.Driver.snapshot dc 3) (Sim.Driver.snapshot df 3)

let test_cache_distinguishes_configs () =
  Codegen.Cache.clear ();
  let m = Models.Registry.model (Models.Registry.find_exn "MitchellSchaeffer") in
  let g1 = Codegen.Cache.generate C.baseline m in
  let g2 = Codegen.Cache.generate (C.mlir ~width:4) m in
  let g3 = Codegen.Cache.generate ~optimize:false C.baseline m in
  Alcotest.(check bool) "widths are distinct entries" true (g1 != g2);
  Alcotest.(check bool) "pipelines are distinct entries" true (g1 != g3);
  let s = Codegen.Cache.stats () in
  Alcotest.(check int) "three misses, no aliasing" 3 s.Codegen.Cache.misses

let test_driver_defaults_to_fused () =
  let m = Models.Registry.model (Models.Registry.find_exn "MitchellSchaeffer") in
  let d = Sim.Driver.create_cached C.baseline m ~ncells:4 ~dt:0.01 in
  Alcotest.(check bool) "default engine is Fused" true
    (d.Sim.Driver.engine = Sim.Driver.Fused)

let suite =
  [
    Alcotest.test_case "all 43: fused == closure == interp, 100 steps" `Slow
      test_all_models_engines_agree;
    Alcotest.test_case "all 43: Domain-parallel == sequential" `Slow
      test_all_models_parallel_identical;
    fused_matches_closure;
    fused_matches_interp;
    fused_vector_matches_scalar;
    Alcotest.test_case "aliasing load/store triple is not fused" `Quick
      test_vlos_aliasing_not_fused;
    Alcotest.test_case "fusion window spares pair-claimed ops" `Quick
      test_vlos_claimed_op_not_consumed;
    Alcotest.test_case "all 43: bounds-check elision is bitwise-identical"
      `Slow test_all_models_elide_bitwise_identical;
    Alcotest.test_case "cache hit is bitwise-identical" `Quick

      test_cache_hit_bitwise_identical;
    Alcotest.test_case "cache keys on config and pipeline" `Quick
      test_cache_distinguishes_configs;
    Alcotest.test_case "driver defaults to fused engine" `Quick
      test_driver_defaults_to_fused;
  ]
