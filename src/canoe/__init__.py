"""CANOE: chaotic neural oscillatory attention for next-location prediction.

Package layout:
  dcg/          reverse-mode autodiff core, AdamW, gradient checking
  kernels       numpy oscillator recurrence
  embeddings    smoothed time slots, user/location tables
  topics        CVB0 LDA and the user-preference head
  cnoa          oscillator recurrence and oscillatory attention
  encoder       tri-pair interaction encoder (causal transformer inside)
  decoder       cross-context attentive decoder, heads, losses
  model         full model assembly
  data          check-ins, activity extraction, windows, splits, JSONL I/O
  synthetic     returner/explorer trajectory generator
  mmc           first-order mobility Markov chain baseline
  evaluation    Acc@k / MRR, prefix entropy, stratified reports
  training      epoch loop, checkpoints
  config        JSON run configuration
  cli           command-line interface
"""

__version__ = "0.1.0"
