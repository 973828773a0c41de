"""Sweep the classifier-head architectures and pick the best one.

Seven heads are tried in a fixed order (32/64/128 neurons by 1-3 hidden
layers); every run shares the same data split, backbone and seed so the
rows are comparable.  The winner is the highest validation accuracy,
with ties broken toward fewer parameters, then earlier rows.

Run:  python3 demos/04_head_sweep.py   (about a minute on a laptop)
"""

import os
import tempfile

from maskdetect import (
    TrainConfig,
    desk_backbone,
    pretrain_backbone,
    save_checkpoint,
    split_dataset,
    sweep,
    synth_dataset,
)

# the corpus and the donor checkpoint live in one directory, removed at the end
with tempfile.TemporaryDirectory(prefix="maskdemo_") as work:
    corpus_dir = os.path.join(work, "corpus")
    index = split_dataset(synth_dataset(40, 75, seed=11, out_dir=corpus_dir), seed=0)

    donor = pretrain_backbone(index, desk_backbone(), seed=0, epochs=3, batch_size=8)
    donor_path = os.path.join(work, "donor.ckpt")
    save_checkpoint(donor, donor_path)

    config = TrainConfig(epochs_phase1=3, epochs_phase2=2, unfreeze_last_k=2,
                         lr_phase1=1e-3, lr_phase2=2e-4, batch_size=8, seed=0,
                         augment=None)
    result = sweep(index, desk_backbone(), config, backbone_checkpoint=donor_path)

    print(f"{'neurons':>8} {'layers':>7} {'train_acc':>10} {'val_acc':>8} {'params':>8}")
    for i, row in enumerate(result.rows):
        marker = "  <- best" if i == result.best_index else ""
        print(f"{row.neurons:8d} {row.hidden_layers:7d} {row.train_acc:10.3f} "
              f"{row.val_acc:8.3f} {row.num_params:8d}{marker}")

    best = result.best_row
    print(f"\nchosen head: {best.neurons} neurons x {best.hidden_layers} hidden "
          f"layer(s) at val accuracy {best.val_acc:.3f}")
