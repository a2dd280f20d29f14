let () =
  Alcotest.run "moard"
    (Test_bits.suite @ Test_ir.suite @ Test_semantics.suite @ Test_lang.suite
   @ Test_vm.suite @ Test_trace.suite @ Test_masking.suite
   @ Test_propagation.suite @ Test_model.suite @ Test_inject.suite
   @ Test_stats.suite @ Test_kernels.suite @ Test_report.suite
   @ Test_opt.suite @ Test_text.suite @ Test_derive.suite @ Test_parallel.suite @ Test_placement.suite @ Test_edges.suite @ Test_pipeline.suite
   @ Test_campaign.suite @ Test_campaign_diff.suite @ Test_store.suite
   @ Test_server.suite @ Test_batched.suite @ Test_chaos.suite
   @ Test_cluster.suite @ Test_predict.suite @ Test_parallel_vm.suite
   @ Test_advise.suite @ Test_serving.suite)
