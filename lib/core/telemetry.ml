let confidence_cap = 1000.0

(* [Weights.confidence] is always finite (no-competition rows report
   [Weights.confidence_sentinel] = 1e9, not [infinity]); the cap below
   still bounds them to 1000 so one unanimous row cannot drown the
   mean. *)
let mean_confidence w =
  let n = Weights.n w in
  if n = 0 then 0.0
  else begin
    let sum = ref 0.0 in
    for i = 0 to n - 1 do
      sum := !sum +. Float.min (Weights.confidence w i) confidence_cap
    done;
    !sum /. float_of_int n
  end

(* Both marginals come from the O(1) per-row caches, so a full entropy
   sweep is O(n * nc) with no per-element matrix reads. *)
let mean_row_entropy w =
  let n = Weights.n w and nc = Weights.nc w in
  if n = 0 then 0.0
  else begin
    let log2d = log 2.0 in
    let log2 x = log x /. log2d in
    let sum = ref 0.0 in
    for i = 0 to n - 1 do
      let total = Weights.row_total w i in
      if total > 0.0 then begin
        let h = ref 0.0 in
        for c = 0 to nc - 1 do
          let p = Weights.cluster_weight w i c /. total in
          if p > 0.0 then h := !h -. (p *. log2 p)
        done;
        sum := !sum +. !h
      end
    done;
    !sum /. float_of_int n
  end

let emit (s : Trace.step) w =
  if Cs_obs.Obs.enabled () then
    Cs_obs.Obs.counter ~cat:"converge" ("converge:" ^ s.pass_name)
      [ ("round", float_of_int s.round);
        ("churn", float_of_int s.changed);
        ("churn_fraction", Trace.changed_fraction s);
        ("mean_confidence", mean_confidence w);
        ("mean_entropy", mean_row_entropy w) ]
