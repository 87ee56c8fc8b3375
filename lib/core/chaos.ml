let default_mode = 4
let default_delay_ms = 100.0

(* Spin on the monotonic clock rather than sleeping: a blocked sleep
   can be interrupted by signals, and the point of this mode is to
   charge wall-clock time against the driver's per-pass budget. *)
let stall ms =
  let t0 = Cs_obs.Clock.now () in
  while Cs_obs.Clock.since t0 < ms /. 1000.0 do
    ignore (Sys.opaque_identity ())
  done

let apply ~mode ~delay_ms ctx w =
  match mode with
  | 0 ->
    (* Weights.set rejects non-finite values, so this dies mid-pass. *)
    Weights.set w 0 0 0 Float.nan
  | 1 -> Weights.set w 0 0 0 (-1.0)
  | 2 ->
    (* Soft corruption: squash everything to zero. Normalization resets
       the rows to uniform, so this only destroys information. *)
    for i = 0 to Weights.n w - 1 do
      for c = 0 to Weights.nc w - 1 do
        Weights.scale_cluster w i c 0.0
      done
    done
  | 3 ->
    (* Clobber preplaced rows: erase every preplaced instruction's
       preference for its home cluster, violating the pinning invariant
       the driver checks after each pass. *)
    Array.iteri
      (fun home instrs ->
        List.iter (fun i -> Weights.scale_cluster w i home 0.0) instrs)
      ctx.Context.preplaced_on
  | 5 ->
    (* Slow pass: burn [delay_ms] of wall clock without touching the
       matrix. Harmless to quality; exists to overrun the driver's
       per-pass budget and trip the Pass_timeout quarantine, and to
       stretch rounds past request deadlines in the batch service. *)
    stall delay_ms
  | _ -> failwith "CHAOS: injected pass failure"

(* The tuner never searches CHAOS; its ranges exist only so that every
   parameter has one. A stall is capped at a minute. *)
let mode = Pass.int "mode" ~default:default_mode ~domain:(0, 5) ~tune:(0, 5)

let delay_ms =
  Pass.float "delay_ms" ~default:default_delay_ms ~domain:(0.0, 60_000.0) ~tune:(25.0, 400.0)

let decl =
  Pass.declare ~name:"CHAOS" ~kind:Pass.Spacetime [ mode; delay_ms ] (fun args ->
      apply ~mode:(Pass.get_int args mode) ~delay_ms:(Pass.get args delay_ms))

let pass ?mode:m ?delay_ms:d () =
  Pass.build decl [ Pass.set_int mode m; Pass.set delay_ms d ]

let slow_pass ?(delay_ms = default_delay_ms) () = pass ~mode:5 ~delay_ms ()
