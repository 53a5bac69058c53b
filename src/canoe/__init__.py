"""CANOE: chaotic neural oscillatory attention for next-location prediction.

Package layout:
  dcg/          reverse-mode autodiff core, fused transformer and loss
                nodes, AdamW, gradient checking
  kernels       backend flags the benchmark harness reads (numpy only)
  embeddings    smoothed time slots, user/location tables
  topics        CVB0 LDA and the user-preference head
  cnoa          oscillator recurrence and oscillatory attention, one
                fused graph node per attention site
  encoder       time-user and location-time branches (causal transformer)
  decoder       cross-context attentive decoder, heads, losses
  model         CanoeModel, built from the config's model section
  data          check-ins, activity extraction, windows, splits, JSONL I/O
  synthetic     returner/explorer trajectory generator
  mmc           first-order mobility Markov chain baseline
  evaluation    Acc@k / MRR, prefix entropy, stratified reports
  training      epoch loop, checkpoints
  config        JSON run configuration, checked when read
  cli           command-line interface
"""

__version__ = "0.1.0"
