(* Adversary demo (section 10.4): 20% of the stake is malicious - the
   highest-priority proposer equivocates when it is malicious, and
   malicious committee members vote for two values - yet safety holds
   and latency degrades only mildly.

   Run with:  dune exec examples/adversary_demo.exe *)

module Harness = Algorand_core.Harness

let run ~malicious =
  let r =
    Harness.run
      {
        Harness.default with
        users = 30;
        rounds = 3;
        block_bytes = 200_000;
        malicious_fraction = malicious;
        attacks = (if malicious > 0.0 then [ Harness.Equivocate ] else []);
        tx_rate_per_s = 1.0;
        rng_seed = 77;
      }
  in
  Printf.printf
    "  %2.0f%% malicious: median round %.1fs, %d/%d rounds final, forks=%d, double-final=%d\n%!"
    (malicious *. 100.0) r.completion.median r.final_rounds
    (r.final_rounds + r.tentative_rounds)
    (List.length r.safety.forked_rounds)
    (List.length r.safety.double_final);
  assert (r.safety.double_final = [])

let () =
  Printf.printf "Equivocation attack at increasing malicious stake:\n";
  List.iter (fun m -> run ~malicious:m) [ 0.0; 0.1; 0.2 ];
  Printf.printf "safety held in every configuration (no double-final rounds)\n"
